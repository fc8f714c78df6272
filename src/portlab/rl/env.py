"""Market environment for the rebalancing agent.

The state couples the upper triangle of the rolling-window return
correlation matrix with the current portfolio weights; the Markov
property needs the weights since actions adjust them. Actions nudge one
asset's weight by ``step_delta`` (buy/sell) or leave it alone (hold);
the reward is the annualized Sharpe ratio (risk-free 0) of the portfolio
over the days the adjusted weights were held.

A rollout visits ``t = window, window + rebalance_period, ...`` whatever
actions it takes, so the correlation features depend only on ``t``. A
:class:`FeatureTable` computes them once per return table, and a state
holds only its weights and ``t``: :func:`state_features` reads the
features at ``t`` from the table.

Each check sits with the data it guards: a :class:`FeatureTable` checks
the [-1, 1] range of all its rows once, when built; every
:class:`EnvState` checks that its weights lie on the simplex; and
:func:`env_step` checks that the reward it computes is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..analytics import TRADING_DAYS, ReturnTable, correlation_values
from ..errors import InsufficientDataError, NonFiniteError
from .params import Hyperparams

VOL_FLOOR = 1e-8


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

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        # two reductions, written so that NaN fails
        if not (
            np.minimum.reduce(weights) >= 0.0
            and abs(float(np.add.reduce(weights)) - 1.0) <= 1e-9
        ):
            raise ValueError("weights must lie on the simplex")
        object.__setattr__(self, "weights", weights)


def state_features(state: EnvState, table: FeatureTable) -> np.ndarray:
    """Network input vector: ``table``'s correlation features at ``state.t``, then weights."""
    return np.concatenate([table.at(state.t), state.weights])


def apply_action(weights: np.ndarray, action: int, delta: float) -> np.ndarray:
    """Adjust one weight by ``delta`` and renormalize; hold leaves weights as-is."""
    n = weights.shape[0]
    if not 0 <= action <= 2 * n:
        raise ValueError(f"action id {action} out of range for {n} assets")
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
    ``t = window + k * rebalance_period``, up to ``t <= n_rows``. All rows
    are checked to lie in [-1, 1] once, when the table is built; a window
    whose covariance overflows raises :class:`NonFiniteError` naming its dates.
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
        iu = np.triu_indices(returns.n_assets, k=1)
        rows = []
        for t in range(hp.window, returns.n_rows + 1, hp.rebalance_period):
            start = t - hp.window
            try:
                corr = correlation_values(returns.values[start:t], returns.tickers)
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"in the window {returns.dates[start]} to {returns.dates[t - 1]}: {exc}"
                ) from None
            rows.append(corr[iu])
        self.values = np.stack(rows)
        # written so that NaN fails
        if not (np.all(self.values >= -1.0) and np.all(self.values <= 1.0)):
            raise ValueError("correlation features must lie in [-1, 1]")

    def at(self, t: int) -> np.ndarray:
        """Features of the window ending just before row ``t``."""
        k, off = divmod(t - self.window, self.period)
        if off or not 0 <= k < self.values.shape[0]:
            raise ValueError(f"t={t} is not a time index this table covers")
        return self.values[k]


def env_reset(table: FeatureTable, hp: Hyperparams) -> EnvState:
    """Initial state: equal weights at ``t = window``, after the first window of rows."""
    n = table.returns.n_assets
    return EnvState(np.full(n, 1.0 / n), hp.window)


def env_step(
    state: EnvState,
    action: int,
    table: FeatureTable,
    hp: Hyperparams,
) -> tuple[EnvState, float, bool]:
    """Apply an action, hold the weights for ``rebalance_period`` days, score them.

    Returns the next state (time advanced), the annualized Sharpe reward
    over the held days, and whether fewer than ``rebalance_period`` days
    remain afterwards.
    """
    returns = table.returns
    t = state.t
    if t + hp.rebalance_period > returns.n_rows:
        raise InsufficientDataError(
            f"cannot step: only {returns.n_rows - t} rows left at t={t}"
        )
    weights = apply_action(state.weights, action, hp.step_delta)
    t_next = t + hp.rebalance_period
    next_state = EnvState(weights, t_next)
    reward = annualized_sharpe(returns.values[t:t_next] @ weights)
    if not math.isfinite(reward):
        raise NonFiniteError(
            f"reward over {returns.dates[t]} to {returns.dates[t_next - 1]} is not finite"
        )
    done = (returns.n_rows - t_next) < hp.rebalance_period
    return next_state, reward, done


def annualized_sharpe(
    daily_returns: np.ndarray, trading_days: int = TRADING_DAYS
) -> float:
    """Mean/std Sharpe of a daily return stream, annualized, risk-free 0.

    The annualized volatility is floored at VOL_FLOOR so the value stays
    finite on degenerate (constant or single-day) windows; a volatility
    that overflows float64 gives NaN. The reductions are the ones
    ``ndarray.mean()`` and ``ndarray.std(ddof=1)`` run, called directly,
    so the value is the same to the bit.
    """
    daily = np.asarray(daily_returns, dtype=float)
    n = daily.shape[0]
    daily_mean = np.add.reduce(daily) / n
    mean = float(daily_mean) * trading_days
    if n >= 2:
        dev = daily - daily_mean
        dev *= dev
        std = math.sqrt(np.add.reduce(dev) / (n - 1))
    else:
        std = 0.0
    vol = max(std * math.sqrt(trading_days), VOL_FLOOR)
    if vol == math.inf:
        return math.nan
    return mean / vol
