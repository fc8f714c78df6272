"""Mean-variance portfolios via Monte-Carlo frontier sampling.

The random cloud stands in for the textbook quadratic program: the
minimum-risk portfolio is the cloud's lowest-volatility point and the
optimum-risk portfolio its highest-Sharpe point. The closed-form
sum-to-one minimum-variance solution that the sampler is tested against
lives in ``tests/oracles.py``.

The cloud is one read-only float64 array of shape ``(count, 3 + N)``,
one row per sampled portfolio, in the columns of ``frontier.csv``:
annual volatility, annual return, Sharpe ratio, then the N weights
``w1..wN`` (columns :data:`VOLATILITY`, :data:`RETURN`, :data:`SHARPE`
and ``FIRST_WEIGHT:``). Selections (minimum risk, maximum Sharpe, the
efficient frontier's bins) are row indices into it. A portfolio is its
``(N,)`` weight row, in the order of the tickers it was fitted on.

The cloud is held once: :func:`sample_portfolios` fills it in place,
and the frontier writers hand it, or the rows they select, to
:func:`~portlab.floatcsv.write_float_csv` as one table, which formats
one small block of rows at a time rather than the whole table. A slice
of rows is a view, so the whole cloud is never copied.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import NonFiniteError, UndefinedSharpeError
from .floatcsv import write_float_csv

_CHUNK = 1000  # sampling chunk; fixed so clouds are prefix-stable across counts

# columns of the cloud
VOLATILITY, RETURN, SHARPE, FIRST_WEIGHT = 0, 1, 2, 3


def equal_weight(n: int) -> np.ndarray:
    """1/n in each of the n assets."""
    return np.full(n, 1.0 / n)


def sample_portfolios(
    mu: np.ndarray,
    cov: np.ndarray,
    count: int,
    risk_free: float,
    seed: int,
    trading_days: int,
) -> np.ndarray:
    """Draw ``count`` random long-only portfolios and score each one; return the cloud.

    Weights are N independent uniform(0,1) draws normalized to sum 1.
    ``mu`` is annual mean returns; ``cov`` is the daily covariance array, so
    volatility is annualized here. Sampling is chunked with one child
    RNG stream per chunk, which makes the cloud a deterministic function
    of the seed and prefix-stable in ``count``. Raises
    :class:`UndefinedSharpeError` for a zero volatility and
    :class:`NonFiniteError` if a volatility or Sharpe ratio overflows float64.
    """
    n = mu.shape[0]
    # the cloud first: a count beyond memory fails here at once, before
    # a child stream is spawned for each of its chunks
    cloud = np.empty((count, FIRST_WEIGHT + n))
    streams = np.random.SeedSequence(seed).spawn((count + _CHUNK - 1) // _CHUNK)
    for chunk_idx, stream in enumerate(streams):
        rows = cloud[chunk_idx * _CHUNK : (chunk_idx + 1) * _CHUNK]
        draws = np.random.default_rng(stream).uniform(size=(rows.shape[0], n))
        w = draws / draws.sum(axis=1, keepdims=True)
        variances = np.maximum(np.einsum("ij,jk,ik->i", w, cov, w), 0.0)
        r = w @ mu
        # a zero volatility divides by zero here, but is reported just below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            v = np.sqrt(variances * trading_days)
            s = (r - risk_free) / v
        if not np.all(v > 0):
            raise UndefinedSharpeError("sampled portfolio has zero or undefined volatility")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(s))):
            raise NonFiniteError(
                "annual volatility or Sharpe ratio (at risk_free "
                f"{risk_free!r}) of a sampled portfolio overflows float64"
            )
        rows[:, VOLATILITY] = v
        rows[:, RETURN] = r
        rows[:, SHARPE] = s
        rows[:, FIRST_WEIGHT:] = w
    cloud.setflags(write=False)
    return cloud


def min_risk_row(cloud: np.ndarray) -> int:
    """Row of the cloud's leftmost point: minimum volatility, ties to the lower index."""
    return int(np.argmin(cloud[:, VOLATILITY]))


def max_sharpe_row(cloud: np.ndarray) -> int:
    """Row of the cloud's optimum-risk point: maximum Sharpe, ties to the lower index."""
    return int(np.argmax(cloud[:, SHARPE]))


def efficient_frontier(cloud: np.ndarray, bins: int) -> np.ndarray:
    """Rows of the maximum-return point per volatility bin, ordered by volatility."""
    vols = cloud[:, VOLATILITY]
    rets = cloud[:, RETURN]
    vmin = float(vols.min())
    vmax = float(vols.max())
    if vmax == vmin:
        bin_of = np.zeros(len(vols), dtype=int)
    else:
        bin_of = np.minimum(
            ((vols - vmin) / (vmax - vmin) * bins).astype(int), bins - 1
        )
    # occupied bins only: split the points, ascending within each bin, at
    # every change of bin (np.unique would also import numpy.ma)
    by_bin = np.argsort(bin_of, kind="stable")
    chosen: list[int] = []
    for members in np.split(by_bin, np.flatnonzero(np.diff(bin_of[by_bin])) + 1):
        chosen.append(int(members[np.argmax(rets[members])]))
    chosen.sort(key=lambda i: (vols[i], i))
    return np.array(chosen, dtype=np.intp)


def write_frontier_csv(cloud: np.ndarray, path: str | Path) -> None:
    """Dump the cloud as ``volatility,return,sharpe,w1..wN`` (one row per point)."""
    write_frontier_rows(cloud, slice(None), path)


def write_frontier_rows(cloud: np.ndarray, rows: np.ndarray | slice, path: str | Path) -> None:
    """Write the cloud's rows ``rows`` (indices or a slice) in the layout above."""
    n_assets = cloud.shape[1] - FIRST_WEIGHT
    header = ["volatility", "return", "sharpe"] + [f"w{i + 1}" for i in range(n_assets)]
    write_float_csv(path, header, cloud[rows])
