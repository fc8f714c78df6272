"""Small feed-forward action-value network with hand-written gradients.

Hidden layers are rectified, the output layer is affine. Training is
plain gradient descent on the mean squared error between the taken
action's Q-value and its TD target; gradients flow only through the
taken action's output. Everything is float64 numpy so the analytic
gradients can be checked against central finite differences.

All parameters live in one flat vector, ``QNetwork.params``, laid out
layer by layer with each weight matrix (row-major) before its bias, the
order :func:`save_qnetwork` writes. ``weights[i]`` and ``biases[i]`` are
views into it. The backward pass writes into a gradient vector of the
same layout, so a training step updates every parameter with one
in-place ``params -= learning_rate * grad``. Each layer computes
``a @ w``, adds the bias and rectifies in place: the same float
operations in the same order as ``max(a @ w + b, 0)``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import DivergenceError, ModelFormatError
from .env import feature_dim, num_actions
from .params import Hyperparams

if TYPE_CHECKING:
    from .agent import ReplayBatch


class QNetwork:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors.

    ``weights[i]`` and ``biases[i]`` are views into the flat ``params``
    vector, so writing into them (``w -= ...``, ``w[i, j] = ...``) updates
    ``params``. Mutable during training; treat as immutable once training
    finished.
    """

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias vector per weight matrix")
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("bias length must equal layer fan-out")
        for prev, nxt in zip(weights, weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise ValueError("layer dimensions do not chain")
        if not all(np.all(np.isfinite(w)) for w in weights) or not all(
            np.all(np.isfinite(b)) for b in biases
        ):
            raise ValueError("parameters must be finite")
        dims = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
        self.params = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)))
        self.weights, self.biases = _layer_views(self.params, dims)
        for view, value in zip(self.weights + self.biases, [*weights, *biases]):
            view[...] = value
        # written by every training step, same layout as params
        self._grad = np.zeros_like(self.params)
        self._grad_w, self._grad_b = _layer_views(self._grad, dims)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_outputs(self) -> int:
        return self.weights[-1].shape[1]

    def parameter_count(self) -> int:
        return self.params.size


def _layer_views(
    flat: np.ndarray, dims: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat parameter-layout vector."""
    weights = []
    biases = []
    start = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out))
        start += fan_in * fan_out
        biases.append(flat[start : start + fan_out])
        start += fan_out
    return weights, biases


def qnet_init(
    n_assets: int, hp: Hyperparams, rng: np.random.Generator | None = None
) -> QNetwork:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases, seeded."""
    if rng is None:
        rng = np.random.default_rng(hp.seed)
    dims = [feature_dim(n_assets), *hp.hidden_dims, num_actions(n_assets)]
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return QNetwork(weights, biases)


def qnet_forward(net: QNetwork, features: np.ndarray) -> np.ndarray:
    """Action values for a single feature vector."""
    features = np.asarray(features, dtype=float)
    if features.shape != (net.n_inputs,):
        raise ValueError(
            f"expected feature vector of length {net.n_inputs}, got {features.shape}"
        )
    return _forward_batch(net, features[None, :])[0]


def _forward_batch(
    net: QNetwork, x: np.ndarray, hidden: list[np.ndarray] | None = None
) -> np.ndarray:
    """Output rows for the input rows ``x``; appends each hidden activation to ``hidden``."""
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = a @ w
        a += b
        np.maximum(a, 0.0, out=a)
        if hidden is not None:
            hidden.append(a)
    a = a @ net.weights[-1]
    a += net.biases[-1]
    return a


def td_targets(batch: ReplayBatch, net: QNetwork, discount: float) -> np.ndarray:
    """TD target per batch row, bootstrapping from ``net`` on the next states.

    The Bellman backup ``reward + discount * max_a' Q(next_state, a')``;
    done rows bootstrap nothing and take the reward alone.
    """
    bootstrap = np.maximum.reduce(_forward_batch(net, batch.next_states), axis=1)
    bootstrap *= discount
    bootstrap += batch.rewards
    np.copyto(bootstrap, batch.rewards, where=batch.dones)
    return bootstrap


def qnet_train_step(
    net: QNetwork,
    batch: ReplayBatch,
    targets: np.ndarray,
    learning_rate: float,
    step: int | None = None,
) -> float:
    """One gradient-descent update toward the targets; returns the pre-update loss.

    Reads the batch's ``states`` and ``actions`` arrays; ``targets`` has
    one entry per batch row.
    """
    loss = _backprop(
        net, batch.states, batch.actions, np.asarray(targets, float), net._grad_w, net._grad_b
    )
    if not math.isfinite(loss):
        where = "" if step is None else f" at step {step}"
        raise DivergenceError(f"non-finite training loss{where}")
    grad = net._grad
    grad *= learning_rate
    net.params -= grad
    return loss


def _loss_and_grads(
    net: QNetwork, x: np.ndarray, actions: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean squared error on the taken actions' Q-values, with fresh per-layer gradients."""
    grad_w, grad_b = _layer_views(np.empty_like(net.params), net.layer_dims)
    loss = _backprop(net, x, actions, targets, grad_w, grad_b)
    return loss, grad_w, grad_b


def _backprop(
    net: QNetwork,
    x: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    grad_w: list[np.ndarray],
    grad_b: list[np.ndarray],
) -> float:
    """Write the loss gradients into ``grad_w``/``grad_b``; return the loss."""
    batch_size = x.shape[0]
    activations = [x]
    out = _forward_batch(net, x, activations)
    rows = np.arange(batch_size)
    err = out[rows, actions] - targets
    loss = float(np.add.reduce(err * err) / batch_size)

    # the output activations are spent: reuse them as d(loss)/d(out)
    delta = out
    delta.fill(0.0)
    delta[rows, actions] = 2.0 * err / batch_size
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=grad_w[i])
        np.add.reduce(delta, axis=0, out=grad_b[i])
        if i > 0:
            # rectifier gate: the stored activation is max(z, 0), so its
            # positivity marks where gradient passes
            delta = delta @ net.weights[i].T
            delta *= activations[i] > 0
    return loss


def save_qnetwork(net: QNetwork, path: str | Path) -> None:
    """Write dims then parameters (row-major per layer, weights before biases)."""
    lines = ["qnetwork " + " ".join(str(d) for d in net.layer_dims)]
    lines.extend(map(repr, net.params.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_qnetwork(path: str | Path) -> QNetwork:
    """Inverse of :func:`save_qnetwork`; exact round-trip of parameters.

    Raises :class:`ModelFormatError` when the file is not a complete,
    well-formed saved network.
    """
    try:
        text = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    if not text or not text[0].startswith("qnetwork "):
        raise ModelFormatError(f"{path}: not a saved q-network")
    try:
        dims = [int(tok) for tok in text[0].split()[1:]]
    except ValueError:
        raise ModelFormatError(f"{path}: bad layer dims in header {text[0]!r}") from None
    if len(dims) < 2 or min(dims) < 1:
        raise ModelFormatError(f"{path}: need at least input and output dims, all >= 1")
    expected = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
    if len(text) - 1 != expected:
        raise ModelFormatError(
            f"{path}: dims {dims} need {expected} parameters, found {len(text) - 1}"
        )
    try:
        values = np.array([float(v) for v in text[1:]])
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    weights, biases = _layer_views(values, dims)
    try:
        return QNetwork(weights, biases)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
