"""Mean-variance portfolios via Monte-Carlo frontier sampling.

The random cloud stands in for the textbook quadratic program: the
minimum-risk portfolio is the cloud's lowest-volatility point and the
optimum-risk portfolio its highest-Sharpe point. The closed-form
sum-to-one minimum-variance solution that the sampler is tested against
lives in ``tests/oracles.py``.

The cloud is held as arrays, one row per sampled portfolio: volatilities,
returns and Sharpe ratios of shape ``(count,)`` and weights of shape
``(count, n)``. :class:`FrontierPoint` objects are built only for the
rows a selection picks (minimum risk, maximum Sharpe, the efficient
frontier's bins).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytics import TRADING_DAYS, CovMatrix
from .errors import UndefinedSharpeError
from .floatcsv import write_float_csv

_CHUNK = 1000  # sampling chunk; fixed so clouds are prefix-stable across counts


@dataclass(frozen=True)
class Portfolio:
    """Named long-only weight vector on the unit simplex."""

    tickers: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (len(self.tickers),):
            raise ValueError("weights must align with tickers")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative (long-only)")
        if not abs(float(weights.sum()) - 1.0) <= 1e-9:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        weights.setflags(write=False)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class FrontierPoint:
    """One sampled portfolio: annualized volatility/return, Sharpe, weights."""

    annual_volatility: float
    annual_return: float
    sharpe: float
    weights: np.ndarray


@dataclass(frozen=True)
class FrontierCloud:
    """The full Monte-Carlo sample as read-only arrays; deterministic for a fixed seed.

    Row ``i`` of every array describes sampled portfolio ``i``:
    ``volatilities`` and ``returns`` are annualized, ``sharpes`` is
    ``(returns - risk_free) / volatilities`` and ``weights`` is
    ``(count, n)`` with every row on the unit simplex.
    """

    volatilities: np.ndarray
    returns: np.ndarray
    sharpes: np.ndarray
    weights: np.ndarray
    seed: int
    risk_free: float

    def __post_init__(self) -> None:
        for name in ("volatilities", "returns", "sharpes", "weights"):
            values = np.array(getattr(self, name), dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        count = self.volatilities.shape[0] if self.volatilities.ndim == 1 else -1
        if count < 1:
            raise ValueError("volatilities must be a non-empty 1-D array")
        if self.returns.shape != (count,) or self.sharpes.shape != (count,):
            raise ValueError("returns and sharpes must have one entry per volatility")
        if self.weights.ndim != 2 or self.weights.shape[0] != count or not self.weights.size:
            raise ValueError("weights must be a (count, n) array with n >= 1")
        # written as not (x <= tol) so that NaN fails every check
        simplex_err = np.max(np.abs(self.weights.sum(axis=1) - 1.0))
        if np.any(self.weights < 0) or not simplex_err <= 1e-9:
            raise ValueError("every sampled weight vector must lie on the simplex")
        if not np.all(self.volatilities > 0):
            raise ValueError("volatilities must be positive")
        implied = (self.returns - self.risk_free) / self.volatilities
        if not np.max(np.abs(self.sharpes - implied)) <= 1e-9:
            raise ValueError("stored Sharpe values inconsistent with return/volatility")

    @property
    def sample_count(self) -> int:
        return self.volatilities.shape[0]

    def point(self, i: int) -> FrontierPoint:
        """Row ``i`` as a :class:`FrontierPoint` (weights are a read-only view)."""
        return FrontierPoint(
            annual_volatility=float(self.volatilities[i]),
            annual_return=float(self.returns[i]),
            sharpe=float(self.sharpes[i]),
            weights=self.weights[i],
        )


def equal_weight(n: int, tickers: tuple[str, ...] | None = None) -> Portfolio:
    """1/n in every asset."""
    if n < 1:
        raise ValueError("need at least one asset")
    if tickers is None:
        tickers = tuple(f"asset_{i}" for i in range(n))
    elif len(tickers) != n:
        raise ValueError("tickers must match asset count")
    return Portfolio(tickers, np.full(n, 1.0 / n))


def sample_portfolios(
    mu: np.ndarray,
    cov: CovMatrix | np.ndarray,
    count: int,
    risk_free: float,
    seed: int,
    trading_days: int = TRADING_DAYS,
) -> FrontierCloud:
    """Draw ``count`` random long-only portfolios and score each one.

    Weights are N independent uniform(0,1) draws normalized to sum 1.
    ``mu`` is annual mean returns; ``cov`` is the daily covariance, so
    volatility is annualized here. Sampling is chunked with one child
    RNG stream per chunk, which makes the cloud a deterministic function
    of the seed and prefix-stable in ``count``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    mu = np.asarray(mu, dtype=float)
    sigma = cov.values if isinstance(cov, CovMatrix) else np.asarray(cov, dtype=float)
    n = mu.shape[0]
    if sigma.shape != (n, n):
        raise ValueError("mu and covariance dimensions do not match")

    n_chunks = (count + _CHUNK - 1) // _CHUNK
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    vols = np.empty(count)
    rets = np.empty(count)
    sharpes = np.empty(count)
    weights = np.empty((count, n))
    for chunk_idx in range(n_chunks):
        lo = chunk_idx * _CHUNK
        hi = min(lo + _CHUNK, count)
        rng = np.random.default_rng(streams[chunk_idx])
        draws = rng.uniform(size=(hi - lo, n))
        w = draws / draws.sum(axis=1, keepdims=True)
        variances = np.maximum(np.einsum("ij,jk,ik->i", w, sigma, w), 0.0)
        v = np.sqrt(variances * trading_days)
        if not np.all(v > 0):
            raise UndefinedSharpeError("sampled portfolio has zero or undefined volatility")
        r = w @ mu
        weights[lo:hi] = w
        vols[lo:hi] = v
        rets[lo:hi] = r
        sharpes[lo:hi] = (r - risk_free) / v
    return FrontierCloud(vols, rets, sharpes, weights, seed, risk_free)


def min_risk_portfolio(cloud: FrontierCloud) -> FrontierPoint:
    """The cloud's leftmost point: minimum volatility, ties to the lower index."""
    return cloud.point(int(np.argmin(cloud.volatilities)))


def max_sharpe_portfolio(cloud: FrontierCloud) -> FrontierPoint:
    """The cloud's optimum-risk point: maximum Sharpe, ties to the lower index."""
    return cloud.point(int(np.argmax(cloud.sharpes)))


def efficient_frontier(cloud: FrontierCloud, bins: int) -> list[FrontierPoint]:
    """Maximum-return point per volatility bin, ordered by volatility."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    vols = cloud.volatilities
    rets = cloud.returns
    vmin = float(vols.min())
    vmax = float(vols.max())
    if vmax == vmin:
        bin_of = np.zeros(len(vols), dtype=int)
    else:
        bin_of = np.minimum(
            ((vols - vmin) / (vmax - vmin) * bins).astype(int), bins - 1
        )
    chosen: list[int] = []
    for b in range(bins):
        members = np.nonzero(bin_of == b)[0]
        if members.size == 0:
            continue
        chosen.append(int(members[np.argmax(rets[members])]))
    chosen.sort(key=lambda i: (vols[i], i))
    return [cloud.point(i) for i in chosen]


def write_frontier_csv(cloud: FrontierCloud, path: str | Path) -> None:
    """Dump the cloud as ``volatility,return,sharpe,w1..wN`` (one row per point)."""
    _write_frontier_table(
        path, cloud.volatilities, cloud.returns, cloud.sharpes, cloud.weights
    )


def write_frontier_points(
    points: list[FrontierPoint], n_assets: int, path: str | Path
) -> None:
    """Write selected points (e.g. the efficient frontier) in the cloud's CSV layout."""
    _write_frontier_table(
        path,
        [p.annual_volatility for p in points],
        [p.annual_return for p in points],
        [p.sharpe for p in points],
        np.array([p.weights for p in points], dtype=float).reshape(len(points), n_assets),
    )


def _write_frontier_table(
    path: str | Path, vols, rets, sharpes, weights: np.ndarray
) -> None:
    n_assets = weights.shape[1]
    header = ["volatility", "return", "sharpe"] + [f"w{i + 1}" for i in range(n_assets)]
    write_float_csv(path, header, np.column_stack((vols, rets, sharpes, weights)))
