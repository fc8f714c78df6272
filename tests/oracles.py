"""Reference implementations that only the tests use.

* :func:`closed_form_min_variance`, the analytic sum-to-one
  minimum-variance weights ``S^-1 1 / (1' S^-1 1)`` that the Monte-Carlo
  minimum-risk portfolio of :mod:`portlab.mvp` is checked against;
* :func:`td_target`, the scalar Bellman backup that
  :func:`portlab.rl.network.td_targets` vectorizes;
* :func:`loss_and_grads`, the network's loss and per-layer gradients in
  fresh arrays, which the finite-difference check and the reference
  training loop read;
* :func:`two_pass_step`, the learning step with one forward pass per
  half of the batch, which :func:`portlab.rl.agent.learn_step` does in one;
* a tabular Q-learning check: the same backup applied to a lookup table
  on a tiny solvable MDP must converge to the value-iteration fixed point;
* :func:`read_training_log`, the inverse of
  :func:`portlab.rl.agent.write_training_log`;
* the post-conditions the code's arithmetic guarantees, as assertion
  helpers: :func:`on_simplex` for weight rows, :func:`checked_covariance`,
  :func:`checked_correlation` and :func:`checked_linkage` for what
  :mod:`portlab.analytics` and :func:`portlab.hrp.single_linkage` return.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from portlab.rl.agent import ReplayBatch
from portlab.rl.network import (
    QNetwork,
    _backprop,
    _forward_batch,
    _layer_views,
    qnet_layers,
    td_targets,
)


class SingularMatrixError(Exception):
    """Covariance matrix not invertible even after regularization."""


@dataclass(frozen=True)
class MinVariancePortfolio:
    """Closed-form minimum-variance solution (sum-to-one constraint only).

    Unlike the long-only weight rows of :mod:`portlab.mvp` this may carry
    negative weights; ``long_only`` flags whether it happens to satisfy the
    long-only constraint.
    """

    tickers: tuple[str, ...]
    weights: np.ndarray
    long_only: bool

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "tickers", tuple(self.tickers))


def closed_form_min_variance(cov: np.ndarray) -> MinVariancePortfolio:
    """Analytic minimum-variance weights: ``S^-1 1 / (1' S^-1 1)``.

    Solves the variance minimization with only the sum-to-one constraint,
    so weights can go negative. Adds ``1e-10 I`` once if the matrix is
    (near-)singular.
    """
    sigma = np.asarray(cov, dtype=float)
    tickers = tuple(f"asset_{i}" for i in range(sigma.shape[0]))
    n = sigma.shape[0]
    if n == 0:
        raise ValueError("covariance matrix must be non-empty")
    ones = np.ones(n)

    x = _solve_or_none(sigma, ones)
    if x is None:
        x = _solve_or_none(sigma + 1e-10 * np.eye(n), ones)
    if x is None:
        raise SingularMatrixError("covariance matrix singular even after regularization")
    denom = float(x.sum())
    if denom == 0.0 or not np.isfinite(denom):
        raise SingularMatrixError("degenerate minimum-variance solution")
    weights = x / denom
    return MinVariancePortfolio(tickers, weights, long_only=bool(np.all(weights >= 0)))


def _solve_or_none(sigma: np.ndarray, ones: np.ndarray) -> np.ndarray | None:
    try:
        x = np.linalg.solve(sigma, ones)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)):
        return None
    residual = float(np.max(np.abs(sigma @ x - ones)))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(ones)))):
        return None
    return x


def td_target(reward: float, discount: float, max_next_q: float, done: bool) -> float:
    """Bellman backup for one transition: ``r + gamma * max_a' Q(s', a')``.

    Terminal transitions bootstrap nothing and return the reward alone.
    """
    if done:
        return float(reward)
    return float(reward + discount * max_next_q)


def loss_and_grads(
    net: QNetwork, x: np.ndarray, actions: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean squared error on the taken actions' Q-values, with per-layer gradients.

    The gradients are copied out of the net's own gradient vector into
    fresh arrays, so the next backward pass does not overwrite them.
    """
    loss = _backprop(net, qnet_layers(net, x), (np.arange(x.shape[0]), actions), targets)
    grad_w, grad_b = _layer_views(net._grad.copy(), net.layer_dims)
    return loss, grad_w, grad_b


def two_pass_step(
    net: QNetwork, batch: ReplayBatch, discount: float, learning_rate: float
) -> float:
    """One gradient step as two forward passes; returns the pre-update loss.

    The next states go through the network alone for the TD targets, then
    the states alone for the loss and its gradients. Leaves the net's
    gradient vector scaled by ``learning_rate``, as the training step does.
    """
    targets = td_targets(batch, _forward_batch(net, batch.next_states), discount)
    layers = [batch.states]
    layers.append(_forward_batch(net, batch.states, layers))
    loss = _backprop(net, layers, (np.arange(targets.shape[0]), batch.actions), targets)
    net._grad *= learning_rate
    net.params -= net._grad
    return loss


@dataclass(frozen=True)
class ToyMDP:
    """Deterministic MDP: ``next_state[s, a]`` and ``rewards[s, a]``."""

    next_state: np.ndarray
    rewards: np.ndarray

    def __post_init__(self) -> None:
        next_state = np.asarray(self.next_state, dtype=int)
        rewards = np.asarray(self.rewards, dtype=float)
        if next_state.shape != rewards.shape or next_state.ndim != 2:
            raise ValueError("next_state and rewards must share an (S, A) shape")
        if np.any(next_state < 0) or np.any(next_state >= next_state.shape[0]):
            raise ValueError("next_state entries must be valid state indices")
        object.__setattr__(self, "next_state", next_state)
        object.__setattr__(self, "rewards", rewards)

    @property
    def n_states(self) -> int:
        return self.next_state.shape[0]

    @property
    def n_actions(self) -> int:
        return self.next_state.shape[1]


def two_state_chain() -> ToyMDP:
    """Two states, two actions (stay / switch), distinct optimal Q-values."""
    return ToyMDP(
        next_state=np.array([[0, 1], [1, 0]]),
        rewards=np.array([[0.0, 1.0], [2.0, 0.0]]),
    )


def value_iteration(
    mdp: ToyMDP, discount: float, tol: float = 1e-12, max_iter: int = 1_000_000
) -> np.ndarray:
    """Optimal action-value table Q* by fixed-point iteration."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(max_iter):
        v_next = q.max(axis=1)[mdp.next_state]
        updated = mdp.rewards + discount * v_next
        if np.max(np.abs(updated - q)) < tol:
            return updated
        q = updated
    raise RuntimeError("value iteration did not converge")


def tabular_q_check(
    mdp: ToyMDP, discount: float, alpha: float, steps: int, seed: int = 0
) -> float:
    """Max |Q - Q*| after running tabular Q-learning with :func:`td_target`.

    Exploring starts: each step samples a uniformly random (state, action)
    pair, applies the deterministic dynamics, and nudges the table toward
    the :func:`td_target` backup with step size ``alpha``.
    """
    rng = np.random.default_rng(seed)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(steps):
        s = int(rng.integers(mdp.n_states))
        a = int(rng.integers(mdp.n_actions))
        s_next = int(mdp.next_state[s, a])
        target = td_target(mdp.rewards[s, a], discount, float(q[s_next].max()), False)
        q[s, a] += alpha * (target - q[s, a])
    q_star = value_iteration(mdp, discount)
    return float(np.max(np.abs(q - q_star)))


def read_training_log(path: str | Path) -> np.ndarray:
    """The ``(episodes, 3)`` log array; each line's episode must be its row index."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [r for r in reader if r]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: episodes are not numbered 0, 1, ...")
    return np.array([[float(c) for c in r[1:]] for r in rows]).reshape(len(rows), 3)


SIMPLEX_TOL = 1e-9


def on_simplex(weights: np.ndarray) -> bool:
    """Whether each row (last axis) is >= 0 and sums to 1 within ``SIMPLEX_TOL``; NaN fails."""
    low = np.minimum.reduce(weights, None)
    deviation = np.maximum.reduce(abs(np.add.reduce(weights, -1) - 1.0), None)
    return bool(low >= 0.0 and deviation <= SIMPLEX_TOL)


def square_matrix(values: np.ndarray, label: str) -> np.ndarray:
    """``values`` as a float array, asserted n x n, finite and symmetric within 1e-12."""
    values = np.asarray(values, dtype=float)
    assert values.ndim == 2 and values.shape[0] == values.shape[1], (
        f"{label} matrix must be square, got shape {values.shape}"
    )
    assert np.all(np.isfinite(values)), f"{label} entries must be finite"
    assert np.max(np.abs(values - values.T), initial=0.0) <= 1e-12, (
        f"{label} matrix must be symmetric within 1e-12"
    )
    return values


def checked_covariance(values: np.ndarray) -> np.ndarray:
    """``values`` asserted a covariance: square, symmetric, PSD, diagonal >= 0."""
    values = square_matrix(values, "covariance")
    assert np.all(np.diag(values) >= 0), "covariance diagonal must be non-negative"
    # rounding leaves eigenvalues of a singular matrix about eps * scale below 0
    scale = max(1.0, float(np.max(np.diag(values), initial=0.0)))
    assert np.linalg.eigvalsh(values).min() >= -1e-9 * scale, (
        "covariance matrix must be positive semidefinite"
    )
    return values


def checked_correlation(values: np.ndarray) -> np.ndarray:
    """``values`` asserted a correlation: square, symmetric, unit diagonal, in [-1, 1]."""
    values = square_matrix(values, "correlation")
    assert np.all(np.diag(values) == 1.0), "correlation diagonal must be exactly 1"
    assert np.all((values >= -1.0) & (values <= 1.0)), "correlation entries must lie in [-1, 1]"
    return values


def checked_linkage(tree: np.ndarray, n_leaves: int) -> np.ndarray:
    """``tree`` asserted the merges of ``n_leaves`` leaves, in :mod:`portlab.hrp`'s layout.

    Each child is a known node used once, each size is the sum of its
    children's sizes, and the distances are finite and non-decreasing.
    """
    tree = np.asarray(tree, dtype=float)
    assert tree.shape == (n_leaves - 1, 4), (
        f"expected {n_leaves - 1} merges, got shape {tree.shape}"
    )
    seen: set[float] = set()
    sizes = {i: 1 for i in range(n_leaves)}
    prev = -math.inf
    for step, (left, right, distance, size) in enumerate(tree.tolist()):
        for child in (left, right):
            assert child in sizes, f"merge {step} references unknown node {child:g}"
            assert child not in seen, f"node {child:g} used as a child twice"
            seen.add(child)
        assert size == sizes[left] + sizes[right], (
            f"merge {step} size {size:g} inconsistent with children"
        )
        assert math.isfinite(distance), f"merge {step} distance {distance} is not finite"
        assert distance >= prev - 1e-12, "merge distances must be non-decreasing"
        prev = distance
        sizes[n_leaves + step] = size
    return tree
