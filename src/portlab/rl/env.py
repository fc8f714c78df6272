"""Market environment for the rebalancing agent.

The state couples the upper triangle of the rolling-window return
correlation matrix with the current portfolio weights; the Markov
property needs the weights since actions adjust them. Actions nudge one
asset's weight by ``step_delta`` (buy/sell) or leave it alone (hold);
the reward is the Sharpe ratio (risk-free 0) of the portfolio over the
days the adjusted weights were held, annualized by the run's
``trading_days``, which the caller passes to :func:`env_step`; the
environment reads no config.

A rollout visits ``t = window, window + rebalance_period, ...`` whatever
actions it takes, so the correlation features depend only on ``t``. A
:class:`FeatureTable` computes them once per return table: it takes every
window as one strided view of the returns and passes them to
``correlation_values`` as stacks, a block of windows per call, so a table
costs a few calls instead of one per window. A state holds only its
weights and ``t``: :func:`state_features` reads the features at ``t``
from the table.

Outside input is checked where it enters, and a rollout's own arithmetic
keeps the rest: a :class:`FeatureTable` checks that the table is longer
than ``window + rebalance_period``, and :func:`env_step` that the reward
it computes is finite. The features lie in [-1, 1] because
``correlation_values`` clips them. The weights stay on the simplex
because :func:`apply_action` keeps the one weight it changes >= 0 and
divides by a sum that ``step_delta < 1`` keeps positive. An action comes
from a network with :func:`num_actions` outputs (``train`` builds it,
and ``rl-eval`` checks the dimensions of a loaded one), and every ``t`` a
rollout visits is ``window + k * rebalance_period``, with ``done``
stopping it before a step could run past the last row, so nothing
re-checks either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..analytics import ReturnTable, annualize, correlation_values
from ..errors import InsufficientDataError, NonFiniteError
from .params import Hyperparams

VOL_FLOOR = 1e-8
# floats per FeatureTable block: a block's copy of its windows and each of
# its (B, N, N) temporaries stay under about 0.5 MB
_BLOCK_CELLS = 1 << 16


def num_actions(n_assets: int) -> int:
    """2N+1 discrete actions: buy k (id 2k), sell k (id 2k+1), hold (id 2N)."""
    return 2 * n_assets + 1


def hold_action(n_assets: int) -> int:
    return 2 * n_assets


def feature_dim(n_assets: int) -> int:
    """N(N-1)/2 correlation features plus N weights."""
    return n_assets * (n_assets - 1) // 2 + n_assets


@dataclass(frozen=True)
class EnvState:
    """Portfolio weights (on the simplex) at time index ``t``."""

    weights: np.ndarray
    t: int


def state_features(state: EnvState, table: FeatureTable) -> np.ndarray:
    """Network input vector: ``table``'s correlation features at ``state.t``, then weights."""
    return np.concatenate([table.at(state.t), state.weights])


def apply_action(weights: np.ndarray, action: int, delta: float) -> np.ndarray:
    """Adjust one weight by ``delta`` and renormalize; hold leaves weights as-is."""
    n = weights.shape[0]
    if action == hold_action(n):
        return weights
    asset, is_sell = divmod(action, 2)
    adjusted = weights.copy()
    if is_sell:
        adjusted[asset] = max(0.0, adjusted[asset] - delta)
    else:
        adjusted[asset] += delta
    adjusted /= np.add.reduce(adjusted)
    return adjusted


class FeatureTable:
    """Correlation features at every time index a rollout visits.

    Row ``k`` holds the upper triangle (``k=1``, row-major) of the
    correlation matrix of ``returns.values[t - window : t]`` for
    ``t = window + k * rebalance_period``, up to ``t <= n_rows``. The
    windows are one strided view of the returns, passed to
    ``correlation_values`` as ``(B, window, N)`` stacks of up to
    ``_BLOCK_CELLS // (N * (window + N))`` windows, so each call's
    temporaries stay bounded whatever the table's length and asset count.
    A window whose covariance overflows raises :class:`NonFiniteError`
    naming its dates.
    """

    def __init__(self, returns: ReturnTable, hp: Hyperparams):
        if returns.n_rows <= hp.window + hp.rebalance_period:
            raise InsufficientDataError(
                f"need more than window + rebalance_period = "
                f"{hp.window + hp.rebalance_period} return rows, got {returns.n_rows}"
            )
        self.returns = returns
        self.window = hp.window
        self.period = hp.rebalance_period
        n = returns.n_assets
        # windows[k] = returns.values[k * period : k * period + window], no copy
        windows = sliding_window_view(returns.values, hp.window, axis=0)
        windows = windows[:: hp.rebalance_period].swapaxes(1, 2)
        iu = np.triu_indices(n, k=1)
        self.values = np.empty((windows.shape[0], iu[0].size))
        block = max(1, _BLOCK_CELLS // (n * (hp.window + n)))
        for first in range(0, windows.shape[0], block):
            stack = windows[first : first + block]
            try:
                corr = correlation_values(stack, returns.tickers)
            except NonFiniteError:
                # name the block's first window that overflows on its own
                for k in range(first, first + stack.shape[0]):
                    self._check_window(windows[k], k)
                raise
            self.values[first : first + stack.shape[0]] = corr[:, iu[0], iu[1]]

    def _check_window(self, window: np.ndarray, k: int) -> None:
        """Raise :class:`NonFiniteError` naming window ``k``'s dates if its covariance overflows."""
        try:
            correlation_values(window, self.returns.tickers)
        except NonFiniteError as exc:
            dates = self.returns.dates
            start = k * self.period
            raise NonFiniteError(
                f"in the window {dates[start]} to {dates[start + self.window - 1]}: {exc}"
            ) from None

    def row(self, t: int) -> int:
        """Row ``k`` of ``values``: the window ending just before time index ``t``."""
        return (t - self.window) // self.period

    def at(self, t: int) -> np.ndarray:
        """Features of the window ending just before row ``t``."""
        return self.values[self.row(t)]


def env_reset(table: FeatureTable, hp: Hyperparams) -> EnvState:
    """Initial state: equal weights at ``t = window``, after the first window of rows."""
    n = table.returns.n_assets
    return EnvState(np.full(n, 1.0 / n), hp.window)


def env_step(
    state: EnvState,
    action: int,
    table: FeatureTable,
    hp: Hyperparams,
    trading_days: int,
) -> tuple[EnvState, float, bool]:
    """Apply an action, hold the weights for ``rebalance_period`` days, score them.

    Returns the next state (time advanced), the Sharpe reward over the
    held days annualized by ``trading_days``, and whether fewer than
    ``rebalance_period`` days remain afterwards.
    """
    returns = table.returns
    t = state.t
    weights = apply_action(state.weights, action, hp.step_delta)
    t_next = t + hp.rebalance_period
    next_state = EnvState(weights, t_next)
    reward = annualized_sharpe(returns.values[t:t_next] @ weights, trading_days)
    if not math.isfinite(reward):
        raise NonFiniteError(
            f"reward over {returns.dates[t]} to {returns.dates[t_next - 1]} is not finite"
        )
    done = (returns.n_rows - t_next) < hp.rebalance_period
    return next_state, reward, done


def annualized_sharpe(daily_returns: np.ndarray, trading_days: int) -> float:
    """Annual return over annual risk of a daily return stream, risk-free 0.

    Both come from :func:`portlab.analytics.annualize`. The risk is
    floored at VOL_FLOOR so the value stays finite on degenerate (constant
    or single-day) windows; a risk that overflows float64 gives NaN.
    """
    annual_return, annual_risk = annualize(daily_returns, trading_days)
    vol = max(annual_risk, VOL_FLOOR)
    if vol == math.inf:
        return math.nan
    return annual_return / vol
