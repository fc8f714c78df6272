"""Small feed-forward action-value network with hand-written gradients.

Hidden layers are rectified, the output layer is affine. Training is
plain gradient descent on the mean squared error between the taken
action's Q-value and its TD target; gradients flow only through the
taken action's output. Everything is float64 numpy so the analytic
gradients can be checked against central finite differences.
"""

from __future__ import annotations

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

    Mutable during training; treat as immutable once training finished.
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
        self.weights = [np.array(w, dtype=float) for w in weights]
        self.biases = [np.array(b, dtype=float) for b in biases]

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
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


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


def _forward_batch(net: QNetwork, x: np.ndarray) -> np.ndarray:
    last = len(net.weights) - 1
    a = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
    return a


def _forward_cached(net: QNetwork, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Batch forward keeping each layer's input activation for backprop."""
    last = len(net.weights) - 1
    activations = [x]
    a = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        if i != last:
            activations.append(a)
    return activations, a


def td_target(reward: float, discount: float, max_next_q: float, done: bool) -> float:
    """Bellman backup for one transition: ``r + gamma * max_a' Q(s', a')``.

    Terminal transitions bootstrap nothing and return the reward alone.
    :func:`td_targets` applies the same rule to a DQN batch; the tabular
    convergence check calls this scalar form.
    """
    if done:
        return float(reward)
    return float(reward + discount * max_next_q)


def td_targets(batch: ReplayBatch, net: QNetwork, discount: float) -> np.ndarray:
    """TD target per batch row, bootstrapping from ``net`` on the next states.

    The vectorized form of :func:`td_target`: done rows take the reward
    alone, the others ``reward + discount * max_a' Q(next_state, a')``.
    """
    max_next = _forward_batch(net, batch.next_states).max(axis=1)
    return np.where(batch.dones, batch.rewards, batch.rewards + discount * max_next)


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
    loss, grad_w, grad_b = _loss_and_grads(
        net, batch.states, batch.actions, np.asarray(targets, float)
    )
    if not np.isfinite(loss):
        where = "" if step is None else f" at step {step}"
        raise DivergenceError(f"non-finite training loss{where}")
    for w, b, gw, gb in zip(net.weights, net.biases, grad_w, grad_b):
        w -= learning_rate * gw
        b -= learning_rate * gb
    return loss


def _loss_and_grads(
    net: QNetwork, x: np.ndarray, actions: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean squared error on the taken actions' Q-values, with its gradients."""
    batch_size = x.shape[0]
    activations, out = _forward_cached(net, x)
    rows = np.arange(batch_size)
    err = out[rows, actions] - targets
    loss = float(np.mean(err * err))

    d_out = np.zeros_like(out)
    d_out[rows, actions] = 2.0 * err / batch_size

    grad_w: list[np.ndarray] = [np.empty(0)] * len(net.weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(net.biases)
    delta = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        a_prev = activations[i]
        grad_w[i] = a_prev.T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            # rectifier gate: the stored activation is max(z, 0), so its
            # positivity marks where gradient passes
            delta = (delta @ net.weights[i].T) * (activations[i] > 0)
    return loss, grad_w, grad_b


def save_qnetwork(net: QNetwork, path: str | Path) -> None:
    """Write dims then parameters (row-major per layer, weights before biases)."""
    lines = ["qnetwork " + " ".join(str(d) for d in net.layer_dims)]
    for w, b in zip(net.weights, net.biases):
        lines.extend(repr(float(v)) for v in w.ravel())
        lines.extend(repr(float(v)) for v in b)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_qnetwork(path: str | Path) -> QNetwork:
    """Inverse of :func:`save_qnetwork`; exact round-trip of parameters.

    Raises :class:`ModelFormatError` when the file is not a complete,
    well-formed saved network.
    """
    text = Path(path).read_text(encoding="utf-8").splitlines()
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
    weights = []
    biases = []
    start = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(values[start : start + fan_in * fan_out].reshape(fan_in, fan_out))
        start += fan_in * fan_out
        biases.append(values[start : start + fan_out])
        start += fan_out
    try:
        return QNetwork(weights, biases)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
