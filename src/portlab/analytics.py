"""Returns, annual mean returns, covariance/correlation, and portfolio-level statistics.

Conventions, fixed once so golden values stay stable:

* sample statistics everywhere (variance divisor T-1);
* annualization by ``trading_days``, which every caller takes from the
  run config (``RunConfig.trading_days``) and passes down; nothing here
  has a default for it. Means scale by the factor itself, volatilities by
  its square root. :func:`annualize` is the one implementation for a daily
  return stream, shared by the backtest and the agent's reward;
* :func:`covariance_values` is the one covariance, used by MVP, HRP and
  the agent's features alike: the steps ``np.cov`` runs, with its bits,
  over one ``(T, N)`` table or a ``(K, T, N)`` stack of rolling windows,
  so K windows cost one call instead of K;
* correlation entries involving a (near-)constant column are 0, never NaN,
  with variances floored at ``VARIANCE_FLOOR`` wherever they divide;
* statistics are plain arrays (the ``(n, n)`` covariance and correlation,
  the ``(T,)`` curve). What reaches this module was checked where it
  entered (the price file by ``load_prices``, the config by its loader),
  so only overflow is checked here: a covariance is symmetric with a
  non-negative diagonal by its arithmetic, a correlation has a unit
  diagonal and entries in [-1, 1] by construction, and a weight row
  handed to :func:`schedule_returns` was normalised by the method that
  made it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import NonFiniteError, UndefinedSharpeError

if TYPE_CHECKING:
    from .market_data import PriceTable

VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class ReturnTable:
    """Daily fractional returns; row ``t`` is dated at the later day of the pair.

    :func:`simple_returns` builds the ``(dates, tickers)`` shape and checks
    every value finite, so the class itself checks nothing.
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)


def simple_returns(table: PriceTable) -> ReturnTable:
    """Day-over-day fractional changes: ``P[t+1] / P[t] - 1`` of a forward-filled table."""
    closes = table.closes
    with np.errstate(over="ignore"):
        values = closes[1:] / closes[:-1] - 1.0
    bad = ~np.isfinite(values)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise NonFiniteError(
            f"return of {table.tickers[col]} on {table.dates[row + 1]} overflows: "
            f"close {float(closes[row, col])!r} -> {float(closes[row + 1, col])!r}"
        )
    return ReturnTable(table.dates[1:], table.tickers, values)


def annual_mean(returns: ReturnTable, trading_days: int) -> np.ndarray:
    """Per-column mean daily return scaled by ``trading_days``.

    Raises :class:`NonFiniteError` naming the first asset whose annual
    mean overflows float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = returns.values.mean(axis=0) * trading_days
    bad = ~np.isfinite(values)
    if bad.any():
        raise NonFiniteError(
            f"annual mean return of {returns.tickers[int(np.argmax(bad))]} overflows float64 "
            f"over {returns.dates[0]} to {returns.dates[-1]}"
        )
    return values


def covariance_values(values: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Sample covariance (divisor T-1) of the columns of a T x N array, or of each of K.

    ``values`` is one ``(T, N)`` table or a ``(K, T, N)`` stack of them
    (the agent's rolling windows); the result is ``(N, N)`` or
    ``(K, N, N)``. This is the one covariance in the package: the steps
    ``np.cov`` runs (copy, column means, centre, ``x.T @ x``, times
    ``1/(T-1)``), called directly so that they apply to a whole stack and
    give ``np.cov``'s bits for every table in it.

    Raises :class:`NonFiniteError` if an entry overflows float64, naming
    the first column involved (in the first table of a stack that has one)
    by its entry in ``names``.
    """
    x = np.array(values, dtype=float)
    rows = x.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(x, axis=-2) / rows
        x -= mean[..., None, :]
        cov = np.matmul(x.swapaxes(-1, -2), x)
        cov *= 1 / (rows - 1)
    bad = ~np.isfinite(cov)
    if bad.any():
        col = int(np.argwhere(bad)[0][-2])
        raise NonFiniteError(
            f"sample covariance of {names[col]} over {rows} rows overflows float64"
        )
    return cov


def correlation_values(values: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Correlation of the columns, with zero-variance columns mapped to 0.

    Takes a table or a stack of tables, as :func:`covariance_values`
    does. A finite covariance gives finite correlations, so the one
    finiteness check is :func:`covariance_values`'s.
    """
    cov = covariance_values(values, names)
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    degenerate = var <= VARIANCE_FLOOR
    std = np.sqrt(np.where(degenerate, 1.0, var))
    corr = cov / (std[..., :, None] * std[..., None, :])
    corr[degenerate[..., :, None] | degenerate[..., None, :]] = 0.0
    corr = np.clip(corr, -1.0, 1.0)
    diagonal = np.arange(corr.shape[-1])
    corr[..., diagonal, diagonal] = 1.0
    return corr


def covariance(returns: ReturnTable) -> np.ndarray:
    return covariance_values(returns.values, returns.tickers)


def correlation(returns: ReturnTable) -> np.ndarray:
    return correlation_values(returns.values, returns.tickers)


def annualize(daily: np.ndarray, trading_days: int) -> tuple[float, float]:
    """Annual return (mean x trading_days) and risk (std x its root) of a daily stream.

    The reductions are the ones ``ndarray.mean()`` and ``ndarray.std(ddof=1)``
    run, called directly: the same bits at less cost per call. The risk of a
    single day is 0; an overflow gives inf or NaN, for the caller to report.
    """
    n = daily.shape[0]
    daily_mean = np.add.reduce(daily) / n
    if n >= 2:
        dev = daily - daily_mean
        dev *= dev
        std = math.sqrt(np.add.reduce(dev) / (n - 1))
    else:
        std = 0.0
    return float(daily_mean) * trading_days, std * math.sqrt(trading_days)


def sharpe_ratio(portfolio_return: float, risk_free: float, portfolio_vol: float) -> float:
    """Excess return over the risk-free rate per unit of volatility.

    Raises :class:`NonFiniteError` if the ratio overflows float64.
    """
    if portfolio_vol <= 0:
        raise UndefinedSharpeError(
            f"Sharpe ratio undefined for volatility {portfolio_vol}"
        )
    with np.errstate(over="ignore"):
        sharpe = (portfolio_return - risk_free) / portfolio_vol
    if not math.isfinite(sharpe):
        raise NonFiniteError(
            f"Sharpe ratio ({portfolio_return!r} - risk_free {risk_free!r}) / "
            f"{portfolio_vol!r} overflows float64"
        )
    return sharpe


def schedule_returns(returns: ReturnTable, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Daily returns of a weight schedule and their compounded curve, one per return row.

    The one place portfolio daily returns are computed. ``weights`` is
    either one ``(N,)`` row held on every date or one ``(T, N)`` row per
    return row, each on the simplex (the methods normalise what they
    return); a held row is broadcast, which gives the same bits as its
    tile. Each day's returns are weighted and summed, then compounded as
    ``prod(1 + r) - 1``. Raises :class:`NonFiniteError` if the compounded
    curve leaves the float64 range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        daily = (returns.values * weights).sum(axis=1)
        values = np.cumprod(1.0 + daily) - 1.0
    bad = ~np.isfinite(values)
    if bad.any():
        first = returns.dates[int(np.argmax(bad))]
        raise NonFiniteError(f"portfolio cumulative return overflows on {first}")
    return daily, values
