"""Hierarchical risk parity: distance transforms, single-linkage tree,
quasi-diagonal seriation, and recursive bisection.

The pipeline runs correlation -> correlation distance -> co-distance ->
single-linkage tree -> leaf order -> recursive bisection over the
covariance matrix. Clustering operates on the co-distance matrix; the
correlation distance is only the intermediate transform. Single linkage
is the only clustering rule, as in the HRP allocation itself.

The tree is an ``(n - 1, 4)`` float array in the linkage layout of
``scipy.cluster.hierarchy``: row ``s`` holds merge ``s``'s two child ids
(leaves ``0..n-1``; merge ``s`` forms node ``n + s``), its distance and its
leaf count. :func:`linkage_to_records` gives the records in ``hrp_linkage.json``.
The weights are an ``(n,)`` array in the order of the return table's
tickers.

Each stage takes what the one before built, so none re-checks it:
:func:`single_linkage` uses every node once with consistent sizes, and
its merge distances are finite and never decrease, since each new row is
the elementwise minimum of its children's rows; :func:`quasi_diag_order`
of that tree is a permutation of the assets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytics import VARIANCE_FLOOR, ReturnTable, correlation, covariance


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric non-negative distances with zero diagonal, and their tickers.

    :func:`corr_distance` and :func:`codistance` build each of these
    properties, so the class checks nothing. It stays only as the
    benchmark tracer's handle: perfbench/tracer.py reads the ``tickers``
    of what :func:`codistance` returns.
    """

    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "values", values)


def corr_distance(corr: np.ndarray, tickers: Sequence[str]) -> DistanceMatrix:
    """Map the correlations of ``tickers`` to distances: ``sqrt(0.5 * (1 - rho))``."""
    values = np.sqrt(np.maximum(0.5 * (1.0 - corr), 0.0))
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(tickers, values)


def codistance(d: DistanceMatrix) -> DistanceMatrix:
    """Euclidean distance between distance-matrix columns.

    Measures how similarly two assets relate to the rest of the portfolio:
    ``sqrt(sum_k (D[k,i] - D[k,j])^2)``. Built one column at a time, so it
    needs n^2 memory; each sum runs over k in order, as a single (n, n, n)
    broadcast would, so the values are the same bits.
    """
    values = np.empty_like(d.values)
    for j in range(values.shape[1]):
        diff = d.values - d.values[:, j : j + 1]
        values[:, j] = np.sqrt((diff * diff).sum(axis=0))
    return DistanceMatrix(d.tickers, values)


def single_linkage(d: DistanceMatrix) -> np.ndarray:
    """Agglomerate by repeatedly merging the closest pair of clusters; return the tree.

    Cluster distance is the minimum over element pairs: after each merge,
    the new cluster's row is the elementwise minimum of its children's
    rows. Active node ids stay ascending, so the first minimum of the
    active block in row-major order is the closest pair with the
    lexicographically smallest (left, right) ids; that is how exact ties
    break.

    Child order in each merge is label-invariant: a leaf precedes an
    internal sibling, internal siblings keep formation order, and two
    leaves order by their column sum in the input matrix (falling back to
    node id on exact ties). This keeps the downstream seriation, and so
    the HRP weights, equivariant under input permutations.
    """
    n = len(d.tickers)
    colsums = d.values.sum(axis=0)

    total = 2 * n - 1
    dm = np.full((total, total), np.inf)
    dm[:n, :n] = d.values
    np.fill_diagonal(dm, np.inf)
    sizes = [1] * total
    active = list(range(n))  # kept ascending; new ids are always the largest
    tree = np.empty((n - 1, 4))

    for step in range(n - 1):
        ai, bi = divmod(int(np.argmin(dm[np.ix_(active, active)])), len(active))
        best_a, best_b = active[ai], active[bi]
        new_id = n + step
        sizes[new_id] = sizes[best_a] + sizes[best_b]
        left, right = best_a, best_b
        if right < n and (colsums[right], right) < (colsums[left], left):
            left, right = right, left
        tree[step] = left, right, dm[best_a, best_b], sizes[new_id]
        dm[new_id, :] = dm[:, new_id] = np.minimum(dm[best_a, :], dm[best_b, :])
        # ai < bi: the first minimum of a symmetric block lies above its diagonal
        del active[bi], active[ai]
        active.append(new_id)

    return tree


def quasi_diag_order(tree: np.ndarray) -> list[int]:
    """Depth-first leaf order of the tree, left subtree before right.

    Reordering the covariance matrix by this permutation pulls large
    entries toward the diagonal.
    """
    n = tree.shape[0] + 1
    children = tree[:, :2].astype(int).tolist()
    order: list[int] = []
    stack = [2 * n - 2]
    while stack:
        node = stack.pop()
        if node < n:
            order.append(node)
        else:
            stack.extend(reversed(children[node - n]))
    return order


def cluster_variance(cov_sub: np.ndarray) -> float:
    """Variance of a cluster under inverse-variance weights.

    ``w = diag(V)^-1 / trace(diag(V)^-1)`` then ``w' V w``, with diagonal
    entries floored at VARIANCE_FLOOR so constant assets cannot divide by zero.
    """
    v = np.atleast_2d(np.asarray(cov_sub, dtype=float))
    diag = np.maximum(np.diag(v), VARIANCE_FLOOR)
    v = v.copy()
    np.fill_diagonal(v, diag)
    w = 1.0 / diag
    w /= w.sum()
    return float(w @ v @ w)


def recursive_bisection(cov: np.ndarray, order: list[int]) -> np.ndarray:
    """Top-down weights of the covariance's assets over the seriated asset list ``order``.

    ``order`` is a permutation of the covariance's asset indices, as
    :func:`quasi_diag_order` returns. All weights start at 1. Each cluster
    splits into two contiguous halves (ceil(n/2) | rest); the left half is
    scaled by ``a = 1 - V1/(V1 + V2)`` and the right by ``1 - a``, where
    each V is the inverse-variance cluster variance. Cluster variances are
    floored so every split factor stays strictly inside (0, 1).
    """
    weights = np.ones(cov.shape[0])
    stack: list[list[int]] = [list(order)]
    while stack:
        items = stack.pop()
        if len(items) < 2:
            continue
        half = (len(items) + 1) // 2
        left, right = items[:half], items[half:]
        v1 = max(cluster_variance(cov[np.ix_(left, left)]), VARIANCE_FLOOR)
        v2 = max(cluster_variance(cov[np.ix_(right, right)]), VARIANCE_FLOOR)
        alpha = 1.0 - v1 / (v1 + v2)
        weights[left] *= alpha
        weights[right] *= 1.0 - alpha
        stack.append(left)
        stack.append(right)
    weights /= weights.sum()
    return weights


def hrp_weights(returns: ReturnTable) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline from a return table to the merge tree and the HRP weights."""
    tree = single_linkage(codistance(corr_distance(correlation(returns), returns.tickers)))
    return tree, recursive_bisection(covariance(returns), quasi_diag_order(tree))


def linkage_to_records(tree: np.ndarray) -> list[dict]:
    """Merge list as plain dicts, consumable by standard dendrogram plotters."""
    return [
        {"left": int(left), "right": int(right), "distance": distance, "size": int(size)}
        for left, right, distance, size in tree.tolist()
    ]
