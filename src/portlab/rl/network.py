"""Small feed-forward action-value network with hand-written gradients.

Hidden layers are rectified, the output layer is affine. Training is
plain gradient descent on the mean squared error between the taken
action's Q-value and its TD target; gradients flow only through the
taken action's output. Everything is float64 numpy so the analytic
gradients can be checked against central finite differences.

A network is its layer widths, ``QNetwork.layer_dims``, and one flat
parameter vector, ``QNetwork.params``, laid out layer by layer with each
weight matrix (row-major) before its bias: the order :func:`save_qnetwork`
writes and :func:`qnet_init` draws. The constructor is the one shape
check; ``weights[i]`` and ``biases[i]`` are views into the vector. The
backward pass writes into a gradient vector of the same layout, so a
training step updates every parameter with one in-place
``params -= learning_rate * grad``. Each layer computes
``a @ w``, adds the bias and rectifies in place: the same float
operations in the same order as ``max(a @ w + b, 0)``.

A learning step runs one forward pass, :func:`qnet_layers`, over the
batch's states and next states stacked into one ``(2, batch, inputs)``
array. :func:`td_targets` reads the next-state half of its output and
:func:`qnet_train_step` backpropagates through the state half of every
layer. numpy's matmul multiplies a stack one ``(batch, inputs)`` matrix
at a time, so each half meets the BLAS call that a pass of its own would
make, and gets the same bits. Two halves read as one ``(2 * batch,
inputs)`` matrix would not: where the batch size is not a multiple of
the BLAS kernel's row block, a row's rounding follows the rows around it.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import DivergenceError, ModelFormatError
from ..floatcsv import write_float_csv
from ..numtext import read_float, read_int
from .env import feature_dim, num_actions
from .params import Hyperparams

if TYPE_CHECKING:
    from .agent import ReplayBatch


class QNetwork:
    """Layer widths and the one flat parameter vector they lay out.

    ``layer_dims`` is ``(inputs, *hidden widths, outputs)``. ``params`` is
    held as given, not copied; ``weights[i]`` (fan_in x fan_out) and
    ``biases[i]`` are views into it, so writing into them (``w -= ...``,
    ``w[i, j] = ...``) updates ``params``. Mutable during training; treat
    as immutable once training finished.
    """

    def __init__(self, layer_dims: Sequence[int], params: np.ndarray):
        dims = tuple(layer_dims)
        if len(dims) < 2 or min(dims) < 1:
            raise ValueError("need at least input and output dims, all >= 1")
        params = np.asarray(params, dtype=float)
        expected = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
        if params.shape != (expected,):
            raise ValueError(f"dims {list(dims)} need {expected} parameters, found {params.size}")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        self.layer_dims = dims
        self.params = params
        self.weights, self.biases = _layer_views(params, dims)
        # written by every training step, same layout as params
        self._grad = np.zeros_like(params)
        self._grad_w, self._grad_b = _layer_views(self._grad, dims)

    @property
    def n_inputs(self) -> int:
        return self.layer_dims[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_dims[-1]


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


def qnet_init(n_assets: int, hp: Hyperparams, rng: np.random.Generator) -> QNetwork:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))) drawn from ``rng``, zero biases."""
    dims = (feature_dim(n_assets), *hp.hidden_dims, num_actions(n_assets))
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layers += [rng.uniform(-limit, limit, size=fan_in * fan_out), np.zeros(fan_out)]
    return QNetwork(dims, np.concatenate(layers))


def qnet_forward(net: QNetwork, features: np.ndarray) -> np.ndarray:
    """Action values for a single ``(n_inputs,)`` feature vector."""
    return qnet_layers(net, features[None, :])[-1][0]


def qnet_layers(net: QNetwork, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's activations for the input rows ``x``: ``x``, each hidden layer, the outputs.

    ``x`` is ``(rows, n_inputs)`` or a stack of such matrices.
    """
    layers = [x]
    a = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = a @ w
        a += b
        np.maximum(a, 0.0, out=a)
        layers.append(a)
    a = a @ net.weights[-1]
    a += net.biases[-1]
    layers.append(a)
    return layers


def td_targets(batch: ReplayBatch, next_q: np.ndarray, discount: float) -> np.ndarray:
    """TD target per batch row, bootstrapping from ``next_q``, the next states' Q-values.

    The Bellman backup ``reward + discount * max_a' Q(next_state, a')``;
    done rows bootstrap nothing and take the reward alone.
    """
    bootstrap = np.maximum.reduce(next_q, axis=1)
    bootstrap *= discount
    bootstrap += batch.rewards
    np.copyto(bootstrap, batch.rewards, where=batch.dones)
    return bootstrap


def qnet_train_step(
    net: QNetwork,
    layers: list[np.ndarray],
    taken: tuple[np.ndarray, np.ndarray],
    targets: np.ndarray,
    learning_rate: float,
    step: int,
) -> float:
    """One gradient-descent update toward the targets; returns the pre-update loss.

    ``layers`` is :func:`qnet_layers`' pass over a batch's ``(2, batch,
    n_inputs)`` stack, the states first; the update reads the states'
    half. ``taken`` indexes each state's taken action, ``(rows,
    actions)``, and ``targets`` holds one entry per state. ``step``
    numbers the update in the error raised for a non-finite loss.
    """
    loss = _backprop(net, [a[0] for a in layers], taken, targets)
    if not math.isfinite(loss):
        raise DivergenceError(f"non-finite training loss at step {step}")
    grad = net._grad
    grad *= learning_rate
    net.params -= grad
    return loss


def _backprop(
    net: QNetwork,
    layers: list[np.ndarray],
    taken: tuple[np.ndarray, np.ndarray],
    targets: np.ndarray,
) -> float:
    """Write the loss gradients into the net's gradient vector; return the loss.

    ``layers`` is a pass over ``(batch, n_inputs)`` rows, as
    :func:`qnet_layers` returns it; its output layer is spent.
    """
    batch_size = targets.shape[0]
    # the output activations are spent: reuse them as d(loss)/d(out)
    delta = layers[-1]
    err = delta[taken] - targets
    loss = float(np.add.reduce(err * err) / batch_size)

    delta.fill(0.0)
    delta[taken] = 2.0 * err / batch_size
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(layers[i].T, delta, out=net._grad_w[i])
        np.add.reduce(delta, axis=0, out=net._grad_b[i])
        if i > 0:
            # rectifier gate: the stored activation is max(z, 0), so its
            # positivity marks where gradient passes
            delta = delta @ net.weights[i].T
            delta *= layers[i] > 0
    return loss


def save_qnetwork(net: QNetwork, path: str | Path) -> None:
    """Write dims then parameters (row-major per layer, weights before biases)."""
    header = "qnetwork " + " ".join(str(d) for d in net.layer_dims)
    write_float_csv(path, [header], net.params)


def load_qnetwork(path: str | Path) -> QNetwork:
    """Inverse of :func:`save_qnetwork`; exact round-trip of parameters.

    Raises :class:`ModelFormatError` when the file is not a complete,
    well-formed saved network; its numbers follow :mod:`~portlab.numtext`'s rule.
    """
    try:
        text = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    if not text or not text[0].startswith("qnetwork "):
        raise ModelFormatError(f"{path}: not a saved q-network")
    try:
        dims = [read_int(tok) for tok in text[0].split()[1:]]
    except ValueError:
        raise ModelFormatError(f"{path}: bad layer dims in header {text[0]!r}") from None
    try:
        return QNetwork(dims, np.array([read_float(v) for v in text[1:]]))
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
