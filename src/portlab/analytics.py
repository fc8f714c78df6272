"""Returns, annual mean returns, covariance/correlation, and portfolio-level statistics.

Conventions, fixed once so golden values stay stable:

* sample statistics everywhere (variance divisor T-1);
* annualization by ``trading_days`` (default 252): means scale by the
  factor itself, volatilities by its square root;
* correlation entries involving a (near-)constant column are 0, never NaN,
  with variances floored at ``VARIANCE_FLOOR`` wherever they divide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import AlignmentError, InsufficientDataError, NonFiniteError, UndefinedSharpeError

if TYPE_CHECKING:
    from .backtest import WeightSchedule
    from .market_data import PriceTable

TRADING_DAYS = 252
VARIANCE_FLOOR = 1e-12


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


def freeze_square_matrix(matrix, label: str) -> np.ndarray:
    """Store ``matrix``'s values as a read-only float copy and its tickers as a tuple.

    The values must be n x n over the n tickers, finite and symmetric within
    1e-12. Returns them for the caller's own diagonal and range checks.
    """
    values = np.array(matrix.values, dtype=float)
    n = len(matrix.tickers)
    if values.shape != (n, n):
        raise ValueError(f"{label} matrix shape does not match tickers")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{label} entries must be finite")
    if not np.max(np.abs(values - values.T), initial=0.0) <= 1e-12:
        raise ValueError(f"{label} matrix must be symmetric within 1e-12")
    values.setflags(write=False)
    object.__setattr__(matrix, "tickers", tuple(matrix.tickers))
    object.__setattr__(matrix, "values", values)
    return values


@dataclass(frozen=True)
class CovMatrix:
    """Sample covariance of daily returns (daily variance units)."""

    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = freeze_square_matrix(self, "covariance")
        if not np.all(np.diag(values) >= 0):
            raise ValueError("covariance diagonal must be non-negative")
        # rounding leaves eigenvalues of a singular matrix about eps * scale below 0
        scale = max(1.0, float(np.max(np.diag(values), initial=0.0)))
        if not np.linalg.eigvalsh(values).min() >= -1e-9 * scale:
            raise ValueError("covariance matrix must be positive semidefinite")


@dataclass(frozen=True)
class CorrMatrix:
    """Pearson correlations of daily returns, dimensionless."""

    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = freeze_square_matrix(self, "correlation")
        if not np.all(np.diag(values) == 1.0):
            raise ValueError("correlation diagonal must be exactly 1")
        if not np.all((values >= -1.0) & (values <= 1.0)):
            raise ValueError("correlation entries must lie in [-1, 1]")


@dataclass(frozen=True)
class CumulativeCurve:
    """Compounded cumulative return per date: ``prod(1 + r) - 1`` up to each day."""

    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.dates),):
            raise ValueError("curve values must align with curve dates")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", values)


def simple_returns(table: PriceTable) -> ReturnTable:
    """Day-over-day fractional changes: ``P[t+1] / P[t] - 1``."""
    closes = _cleaned_closes(table)
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


def _cleaned_closes(table: PriceTable) -> np.ndarray:
    if table.has_missing():
        raise ValueError("price table still has missing cells; forward_fill first")
    return table.closes


def annual_mean(returns: ReturnTable, trading_days: int = TRADING_DAYS) -> np.ndarray:
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


def covariance_values(values: np.ndarray, names: Sequence[str] | None = None) -> np.ndarray:
    """Sample covariance (divisor T-1) of the columns of a T x N array.

    Raises :class:`NonFiniteError` if an entry overflows float64, naming
    the first column involved: ``names[j]`` when given, else its index.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise InsufficientDataError("covariance needs at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    bad = ~np.isfinite(cov)
    if bad.any():
        col = int(np.argwhere(bad)[0][0])
        name = f"column {col}" if names is None else names[col]
        raise NonFiniteError(
            f"sample covariance of {name} over {values.shape[0]} rows overflows float64"
        )
    return cov


def correlation_values(values: np.ndarray, names: Sequence[str] | None = None) -> np.ndarray:
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


def covariance(returns: ReturnTable) -> CovMatrix:
    return CovMatrix(returns.tickers, covariance_values(returns.values, returns.tickers))


def correlation(returns: ReturnTable) -> CorrMatrix:
    return CorrMatrix(returns.tickers, correlation_values(returns.values, returns.tickers))


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


def schedule_returns(
    returns: ReturnTable, schedule: WeightSchedule
) -> tuple[np.ndarray, CumulativeCurve]:
    """Daily returns of a (possibly dynamic) weight schedule and their curve.

    The one place portfolio daily returns are computed: the schedule must
    be dated exactly as the return rows (else :class:`AlignmentError`);
    its rows are weighted and summed per day, then compounded as
    ``prod(1 + r) - 1``. Raises :class:`NonFiniteError` if the compounded
    curve leaves the float64 range.
    """
    if schedule.dates != returns.dates:
        raise AlignmentError(
            f"the {len(schedule.dates)} schedule dates are not the {returns.n_rows} return dates"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        daily = (returns.values * schedule.weights).sum(axis=1)
        values = np.cumprod(1.0 + daily) - 1.0
    bad = ~np.isfinite(values)
    if bad.any():
        first = returns.dates[int(np.argmax(bad))]
        raise NonFiniteError(f"portfolio cumulative return overflows on {first}")
    return daily, CumulativeCurve(returns.dates, values)
