"""Hierarchical risk parity: distance transforms, single-linkage tree,
quasi-diagonal seriation, and recursive bisection.

The pipeline runs correlation -> correlation distance -> co-distance ->
single-linkage tree -> leaf order -> recursive bisection over the
covariance matrix. Clustering operates on the co-distance matrix; the
correlation distance is only the intermediate transform. Single linkage
is the only clustering rule, as in the HRP allocation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import (
    VARIANCE_FLOOR, CorrMatrix, CovMatrix, ReturnTable, correlation, covariance, freeze_square_matrix
)
from .mvp import Portfolio


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric non-negative distances with zero diagonal."""

    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = freeze_square_matrix(self, "distance")
        if not np.all(np.diag(values) == 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if not np.all(values >= 0):
            raise ValueError("distances must be non-negative")


@dataclass(frozen=True)
class MergeRecord:
    """One agglomeration step: child node ids, merge distance, merged leaf count."""

    left: int
    right: int
    distance: float
    size: int


@dataclass(frozen=True)
class LinkageTree:
    """N-1 merges over node ids 0..N-1 (leaves) and N..2N-2 (internal)."""

    n_leaves: int
    merges: tuple[MergeRecord, ...]

    def __post_init__(self) -> None:
        n = self.n_leaves
        if len(self.merges) != n - 1:
            raise ValueError(f"expected {n - 1} merges, got {len(self.merges)}")
        seen: set[int] = set()
        sizes = {i: 1 for i in range(n)}
        prev = -math.inf
        for step, m in enumerate(self.merges):
            new_id = n + step
            for child in (m.left, m.right):
                if child not in sizes:
                    raise ValueError(f"merge {step} references unknown node {child}")
                if child in seen:
                    raise ValueError(f"node {child} used as a child twice")
                seen.add(child)
            if m.size != sizes[m.left] + sizes[m.right]:
                raise ValueError(f"merge {step} size {m.size} inconsistent with children")
            if not math.isfinite(m.distance):
                raise ValueError(f"merge {step} distance {m.distance} is not finite")
            if not m.distance >= prev - 1e-12:
                raise ValueError("merge distances must be non-decreasing")
            prev = m.distance
            sizes[new_id] = m.size
        object.__setattr__(self, "merges", tuple(self.merges))

    @property
    def root(self) -> int:
        return self.n_leaves + len(self.merges) - 1


@dataclass(frozen=True)
class SeriationOrder:
    """Dendrogram leaf order: a permutation of 0..N-1."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of 0..N-1")
        object.__setattr__(self, "order", tuple(int(i) for i in self.order))


def corr_distance(corr: CorrMatrix) -> DistanceMatrix:
    """Map correlations to distances: ``sqrt(0.5 * (1 - rho))``."""
    values = np.sqrt(np.maximum(0.5 * (1.0 - corr.values), 0.0))
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(corr.tickers, values)


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


def single_linkage(d: DistanceMatrix) -> LinkageTree:
    """Agglomerate by repeatedly merging the closest pair of clusters.

    Cluster distance is the minimum over element pairs: after each merge,
    the new cluster's row is the elementwise minimum of its children's
    rows. Active node ids stay ascending, so the first minimum of the
    active block in row-major order is the closest pair with the
    lexicographically smallest (left, right) ids; that is how exact ties
    break.

    Child order in each merge record is label-invariant: a leaf precedes
    an internal sibling, internal siblings keep formation order, and two
    leaves order by their column sum in the input matrix (falling back to
    node id on exact ties). This keeps the downstream seriation, and so
    the HRP weights, equivariant under input permutations.
    """
    n = len(d.tickers)
    if n < 2:
        raise ValueError("need at least 2 assets to cluster")
    colsums = d.values.sum(axis=0)

    total = 2 * n - 1
    dm = np.full((total, total), np.inf)
    dm[:n, :n] = d.values
    np.fill_diagonal(dm, np.inf)
    sizes = [1] * total
    active = list(range(n))  # kept ascending; new ids are always the largest
    merges: list[MergeRecord] = []

    for step in range(n - 1):
        ai, bi = divmod(int(np.argmin(dm[np.ix_(active, active)])), len(active))
        best_a, best_b = active[ai], active[bi]
        new_id = n + step
        sizes[new_id] = sizes[best_a] + sizes[best_b]
        left, right = best_a, best_b
        if right < n and (colsums[right], right) < (colsums[left], left):
            left, right = right, left
        merges.append(MergeRecord(left, right, float(dm[best_a, best_b]), sizes[new_id]))
        dm[new_id, :] = dm[:, new_id] = np.minimum(dm[best_a, :], dm[best_b, :])
        # ai < bi: the first minimum of a symmetric block lies above its diagonal
        del active[bi], active[ai]
        active.append(new_id)

    return LinkageTree(n, tuple(merges))


def quasi_diag_order(tree: LinkageTree) -> SeriationOrder:
    """Depth-first leaf order of the tree, left subtree before right.

    Reordering the covariance matrix by this permutation pulls large
    entries toward the diagonal.
    """
    order: list[int] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node < tree.n_leaves:
            order.append(node)
        else:
            merge = tree.merges[node - tree.n_leaves]
            stack.append(merge.right)
            stack.append(merge.left)
    return SeriationOrder(tuple(order))


def cluster_variance(cov_sub: np.ndarray) -> float:
    """Variance of a cluster under inverse-variance weights.

    ``w = diag(V)^-1 / trace(diag(V)^-1)`` then ``w' V w``, with diagonal
    entries floored at VARIANCE_FLOOR so constant assets cannot divide by zero.
    """
    v = np.atleast_2d(np.asarray(cov_sub, dtype=float))
    if v.shape[0] == 0:
        raise ValueError("cluster must be non-empty")
    diag = np.maximum(np.diag(v), VARIANCE_FLOOR)
    v = v.copy()
    np.fill_diagonal(v, diag)
    w = 1.0 / diag
    w /= w.sum()
    return float(w @ v @ w)


def recursive_bisection(cov: CovMatrix, order: SeriationOrder) -> Portfolio:
    """Top-down weight assignment over the seriated asset list.

    All weights start at 1. Each cluster splits into two contiguous
    halves (ceil(n/2) | rest); the left half is scaled by
    ``a = 1 - V1/(V1 + V2)`` and the right by ``1 - a``, where each V is the
    inverse-variance cluster variance. Cluster variances are floored so
    every split factor stays strictly inside (0, 1).
    """
    n = len(order.order)
    if cov.values.shape[0] != n:
        raise ValueError("seriation order does not match covariance size")
    weights = np.ones(n)
    stack: list[list[int]] = [list(order.order)]
    while stack:
        items = stack.pop()
        if len(items) < 2:
            continue
        half = (len(items) + 1) // 2
        left, right = items[:half], items[half:]
        v1 = max(cluster_variance(cov.values[np.ix_(left, left)]), VARIANCE_FLOOR)
        v2 = max(cluster_variance(cov.values[np.ix_(right, right)]), VARIANCE_FLOOR)
        alpha = 1.0 - v1 / (v1 + v2)
        weights[left] *= alpha
        weights[right] *= 1.0 - alpha
        stack.append(left)
        stack.append(right)
    weights /= weights.sum()
    return Portfolio(cov.tickers, weights)


def hrp_weights(returns: ReturnTable) -> tuple[LinkageTree, Portfolio]:
    """Full pipeline from a return table to the merge tree and the HRP weights."""
    corr = correlation(returns)
    dbar = codistance(corr_distance(corr))
    tree = single_linkage(dbar)
    order = quasi_diag_order(tree)
    return tree, recursive_bisection(covariance(returns), order)


def linkage_to_records(tree: LinkageTree) -> list[dict]:
    """Merge list as plain dicts, consumable by standard dendrogram plotters."""
    return [
        {"left": m.left, "right": m.right, "distance": m.distance, "size": m.size}
        for m in tree.merges
    ]
