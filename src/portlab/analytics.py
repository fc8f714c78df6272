"""Returns, annual mean returns, covariance/correlation, and portfolio-level statistics.

Conventions, fixed once so golden values stay stable:

* sample statistics everywhere (variance divisor T-1);
* annualization by ``trading_days``, which every caller takes from the
  run config (``RunConfig.trading_days``) and passes down; nothing here
  has a default for it. Means scale by the factor itself, volatilities by
  its square root. :func:`annualize` is the one implementation for a daily
  return stream, shared by the backtest and the agent's reward;
* a weight vector is on the unit simplex when every weight is >= 0 and it
  sums to 1 within ``SIMPLEX_TOL``, a NaN failing both;
  :func:`on_simplex` is the one check, applied row by row;
* correlation entries involving a (near-)constant column are 0, never NaN,
  with variances floored at ``VARIANCE_FLOOR`` wherever they divide;
* statistics are plain arrays (the ``(n, n)`` covariance and correlation,
  the ``(T,)`` curve), each checked once by the function that produces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InsufficientDataError, NonFiniteError, UndefinedSharpeError

if TYPE_CHECKING:
    from .market_data import PriceTable

VARIANCE_FLOOR = 1e-12
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class ReturnTable:
    """Daily fractional returns; row ``t`` is dated at the later day of the pair."""

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.dates), len(self.tickers)):
            raise ValueError("returns shape does not match dates x tickers")
        if not np.all(np.isfinite(values)):
            raise ValueError("returns must be finite")
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
    """Day-over-day fractional changes: ``P[t+1] / P[t] - 1``."""
    if table.has_missing():
        raise ValueError("price table still has missing cells; forward_fill first")
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
    if returns.n_rows < 1:
        raise InsufficientDataError("annual mean needs at least 1 return row")
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
    """Sample covariance (divisor T-1) of the columns of a T x N array.

    Raises :class:`NonFiniteError` if an entry overflows float64, naming
    the first column involved by its entry in ``names``.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise InsufficientDataError("covariance needs at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    bad = ~np.isfinite(cov)
    if bad.any():
        col = int(np.argwhere(bad)[0][0])
        raise NonFiniteError(
            f"sample covariance of {names[col]} over {values.shape[0]} rows overflows float64"
        )
    return cov


def correlation_values(values: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Correlation of the columns, with zero-variance columns mapped to 0.

    A finite covariance gives finite correlations, so the one finiteness
    check is :func:`covariance_values`'s.
    """
    cov = covariance_values(values, names)
    var = np.diag(cov)
    degenerate = var <= VARIANCE_FLOOR
    std = np.sqrt(np.where(degenerate, 1.0, var))
    corr = cov / np.outer(std, std)
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def square_matrix(values: np.ndarray, label: str) -> np.ndarray:
    """``values`` as a float array, checked n x n, finite and symmetric within 1e-12."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"{label} matrix must be square, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{label} entries must be finite")
    if not np.max(np.abs(values - values.T), initial=0.0) <= 1e-12:
        raise ValueError(f"{label} matrix must be symmetric within 1e-12")
    return values


def checked_covariance(values: np.ndarray) -> np.ndarray:
    """``values`` checked as a covariance: square, symmetric, PSD, diagonal >= 0."""
    values = square_matrix(values, "covariance")
    if not np.all(np.diag(values) >= 0):
        raise ValueError("covariance diagonal must be non-negative")
    # rounding leaves eigenvalues of a singular matrix about eps * scale below 0
    scale = max(1.0, float(np.max(np.diag(values), initial=0.0)))
    if not np.linalg.eigvalsh(values).min() >= -1e-9 * scale:
        raise ValueError("covariance matrix must be positive semidefinite")
    return values


def checked_correlation(values: np.ndarray) -> np.ndarray:
    """``values`` checked as a correlation: square, symmetric, unit diagonal, in [-1, 1]."""
    values = square_matrix(values, "correlation")
    if not np.all(np.diag(values) == 1.0):
        raise ValueError("correlation diagonal must be exactly 1")
    if not np.all((values >= -1.0) & (values <= 1.0)):
        raise ValueError("correlation entries must lie in [-1, 1]")
    return values


def covariance(returns: ReturnTable) -> np.ndarray:
    return checked_covariance(covariance_values(returns.values, returns.tickers))


def correlation(returns: ReturnTable) -> np.ndarray:
    return checked_correlation(correlation_values(returns.values, returns.tickers))


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


def on_simplex(weights: np.ndarray) -> bool:
    """Whether each row (last axis) is >= 0 and sums to 1 within ``SIMPLEX_TOL``; NaN fails.

    Plain ufunc reductions, since the agent checks a state on every step.
    """
    low = np.minimum.reduce(weights, None)
    deviation = np.maximum.reduce(abs(np.add.reduce(weights, -1) - 1.0), None)
    return bool(low >= 0.0 and deviation <= SIMPLEX_TOL)


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
    return row; a held row is broadcast, which gives the same bits as its
    tile. Every row must lie on the simplex. A wrong shape or an
    off-simplex row is the caller's bug, so it raises ``ValueError``.
    Each day's returns are weighted and summed, then compounded as
    ``prod(1 + r) - 1``. Raises :class:`NonFiniteError` if the compounded
    curve leaves the float64 range.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape not in ((returns.n_assets,), returns.values.shape):
        raise ValueError(
            f"weights of shape {weights.shape} are neither one row of {returns.n_assets} "
            f"nor one row per return row {returns.values.shape}"
        )
    if not on_simplex(weights):
        raise ValueError("every weight row must lie on the simplex")
    with np.errstate(over="ignore", invalid="ignore"):
        daily = (returns.values * weights).sum(axis=1)
        values = np.cumprod(1.0 + daily) - 1.0
    bad = ~np.isfinite(values)
    if bad.any():
        first = returns.dates[int(np.argmax(bad))]
        raise NonFiniteError(f"portfolio cumulative return overflows on {first}")
    return daily, values
