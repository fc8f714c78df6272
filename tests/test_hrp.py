import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_returns, random_returns
from oracles import checked_covariance, checked_linkage
from portlab import hrp
from portlab.analytics import correlation
from portlab.hrp import DistanceMatrix


def tickers(n):
    return tuple(f"T{i}" for i in range(n))


def dist(values):
    values = np.asarray(values, dtype=float)
    return DistanceMatrix(tickers(values.shape[0]), values)


def distances(returns):
    """Correlation distances of a return table."""
    return hrp.corr_distance(correlation(returns), returns.tickers)


def naive_agglomeration(values: np.ndarray):
    """Independent single-linkage oracle.

    Recomputes every cluster distance from scratch as the minimum over
    original leaf pairs (no incremental update), with the same argmin
    tie-break and child-ordering conventions as the implementation.
    """
    n = values.shape[0]
    colsums = values.sum(axis=0)
    members = {i: frozenset([i]) for i in range(n)}
    merges = []
    next_id = n
    while len(members) > 1:
        ids = sorted(members)
        best = None
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                d = min(values[x, y] for x in members[a] for y in members[b])
                if best is None or d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        left, right = a, b
        if right < n and (colsums[right], right) < (colsums[left], left):
            left, right = right, left
        merges.append((left, right, d, len(members[a]) + len(members[b])))
        members[next_id] = members.pop(a) | members.pop(b)
        next_id += 1
    return merges


def incremental_single_linkage(values: np.ndarray) -> np.ndarray:
    """Reference: the pure-Python incremental loop single linkage replaced.

    Scans every active pair with a strict ``<`` (so the lexicographically
    smallest (left, right) pair wins a tie) and applies the min update to
    each remaining cluster one at a time; child order as in the
    implementation.
    """
    n = values.shape[0]
    colsums = values.sum(axis=0)
    total = 2 * n - 1
    dm = np.full((total, total), np.inf)
    dm[:n, :n] = values
    sizes = np.ones(total, dtype=int)
    active = list(range(n))
    merges = []
    for step in range(n - 1):
        best_a = best_b = -1
        best_dist = math.inf
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                a, b = active[ai], active[bi]
                if dm[a, b] < best_dist:
                    best_dist = dm[a, b]
                    best_a, best_b = a, b
        new_id = n + step
        sizes[new_id] = sizes[best_a] + sizes[best_b]
        left, right = best_a, best_b
        if right < n and (colsums[right], right) < (colsums[left], left):
            left, right = right, left
        merges.append((left, right, best_dist, sizes[new_id]))
        for c in active:
            if c == best_a or c == best_b:
                continue
            dm[new_id, c] = dm[c, new_id] = min(dm[c, best_a], dm[c, best_b])
        active.remove(best_a)
        active.remove(best_b)
        active.append(new_id)
    return np.array(merges, dtype=float)


def tie_heavy(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric integer distances in {1, 2, 3}: most merges are exact ties."""
    raw = rng.integers(1, 4, size=(n, n)).astype(float)
    values = np.triu(raw, 1)
    return values + values.T


def codistance_3d(values: np.ndarray) -> np.ndarray:
    """The (n, n, n) broadcast form of the co-distance."""
    diff = values[:, :, None] - values[:, None, :]
    return np.sqrt((diff * diff).sum(axis=0))


def random_codistance(rng: np.random.Generator, n: int) -> DistanceMatrix:
    return hrp.codistance(distances(random_returns(rng, 3 * n, n)))


class TestCorrDistance:
    def test_bounds_and_midpoint(self):
        corr = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, -1.0], [0.5, -1.0, 1.0]])
        d = hrp.corr_distance(corr, tickers(3))
        assert d.values[0, 1] == 0.0  # rho = 1
        assert d.values[1, 2] == 1.0  # rho = -1
        assert d.values[0, 2] == 0.5  # rho = 0.5 -> sqrt(0.25)

    def test_zero_diagonal(self, rng):
        rets = random_returns(rng, 30, 4)
        d = distances(rets)
        assert np.all(np.diag(d.values) == 0.0)


class TestCodistance:
    def test_identical_columns_are_zero(self):
        values = np.array([[0.0, 0.2, 0.2], [0.2, 0.0, 0.0], [0.2, 0.0, 0.0]])
        dbar = hrp.codistance(dist(values))
        assert dbar.values[1, 2] == 0.0

    def test_two_asset_expansion(self):
        d = 0.37
        dbar = hrp.codistance(dist([[0.0, d], [d, 0.0]]))
        assert dbar.values[0, 1] == pytest.approx(d * np.sqrt(2), abs=1e-15)

    def test_symmetric_zero_diagonal(self, rng):
        rets = random_returns(rng, 25, 5)
        dbar = hrp.codistance(distances(rets))
        assert np.array_equal(dbar.values, dbar.values.T)
        assert np.all(np.diag(dbar.values) == 0.0)

    @pytest.mark.parametrize("n", [2, 7, 40, 120])
    def test_equals_broadcast_formula_bit_for_bit(self, rng, n):
        d = distances(random_returns(rng, 3 * n, n))
        assert np.array_equal(hrp.codistance(d).values, codistance_3d(d.values))

    def test_peak_memory_is_quadratic(self, rng):
        # the (n, n, n) broadcast would need 200**3 * 8 bytes = 64 MB per temporary
        d = distances(random_returns(rng, 300, 200))
        tracemalloc.start()
        try:
            hrp.codistance(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSingleLinkage:
    def test_hand_trace_three_leaves(self):
        d = dist([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        tree = hrp.single_linkage(d)
        assert tree.tolist() == [[0, 1, 1.0, 2], [2, 3, 2.0, 3]]

    def test_two_leaves(self):
        tree = hrp.single_linkage(dist([[0.0, 0.7], [0.7, 0.0]]))
        assert tree.tolist() == [[0, 1, 0.7, 2]]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2024)
        inputs = []
        for _ in range(120):
            n = int(rng.integers(2, 7))
            raw = rng.uniform(0.01, 2.0, size=(n, n))
            values = (raw + raw.T) / 2
            np.fill_diagonal(values, 0.0)
            inputs.append(values)
        # exact ties: the lexicographically smallest (left, right) pair merges first
        inputs += [tie_heavy(rng, int(rng.integers(2, 8))) for _ in range(200)]
        for values in inputs:
            tree = hrp.single_linkage(dist(values))
            assert list(map(tuple, tree.tolist())) == naive_agglomeration(values)

    @pytest.mark.parametrize("n", [20, 60, 150])
    def test_matches_incremental_reference(self, n):
        rng = np.random.default_rng(n)
        for values in (random_codistance(rng, n).values, tie_heavy(rng, n)):
            tree = hrp.single_linkage(dist(values))
            assert np.array_equal(tree, incremental_single_linkage(values))

    def test_merge_distances_non_decreasing(self, rng):
        for _ in range(20):
            rets = random_returns(rng, 30, 6)
            tree = hrp.single_linkage(hrp.codistance(distances(rets)))
            assert tree[:, 2].tolist() == sorted(tree[:, 2].tolist())

    def test_heights_and_cophenetic_distances_match_scipy(self):
        # scipy breaks ties and orders children differently, so the merge
        # heights and the cophenetic distances are what must agree
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        squareform = pytest.importorskip("scipy.spatial.distance").squareform
        rng = np.random.default_rng(1109)
        for _ in range(200):
            d = random_codistance(rng, int(rng.integers(2, 30)))
            tree = hrp.single_linkage(d)
            checked_linkage(tree, len(d.tickers))
            oracle = hierarchy.linkage(squareform(d.values, checks=False), "single")
            assert np.array_equal(tree[:, 2], oracle[:, 2])
            assert np.array_equal(hierarchy.cophenet(tree), hierarchy.cophenet(oracle))


class TestCheckedLinkage:
    def test_rejects_wrong_merge_count(self):
        with pytest.raises(AssertionError, match="expected 2 merges"):
            checked_linkage(np.array([[0, 1, 1.0, 2]]), 3)

    def test_rejects_child_reuse(self):
        with pytest.raises(AssertionError, match="node 0 used as a child twice"):
            checked_linkage(np.array([[0, 1, 1.0, 2], [0, 3, 2.0, 3]]), 3)

    @pytest.mark.parametrize("child", [4, -1, 1.5, math.nan])
    def test_rejects_unknown_child(self, child):
        with pytest.raises(AssertionError, match="merge 1 references unknown node"):
            checked_linkage(np.array([[0, 1, 1.0, 2], [2, child, 2.0, 3]]), 3)

    def test_rejects_size_other_than_the_children_sum(self):
        with pytest.raises(AssertionError, match="merge 1 size 2 inconsistent with children"):
            checked_linkage(np.array([[0, 1, 1.0, 2], [2, 3, 2.0, 2]]), 3)

    def test_rejects_decreasing_distance(self):
        with pytest.raises(AssertionError, match="non-decreasing"):
            checked_linkage(np.array([[0, 1, 2.0, 2], [2, 3, 1.0, 3]]), 3)

    def test_rejects_nan_distance(self):
        with pytest.raises(AssertionError, match="finite"):
            checked_linkage(np.array([[0, 1, math.nan, 2], [2, 3, 1.0, 3]]), 3)

    def test_records_round_trip(self):
        d = dist([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        tree = hrp.single_linkage(d)
        records = hrp.linkage_to_records(tree)
        assert records[1] == {"left": 2, "right": 3, "distance": 2.0, "size": 3}
        back = [[r["left"], r["right"], r["distance"], r["size"]] for r in records]
        assert np.array_equal(back, tree)


class TestQuasiDiag:
    def test_block_members_stay_adjacent(self):
        corr = np.eye(4)
        corr[0, 1] = corr[1, 0] = 0.9
        corr[2, 3] = corr[3, 2] = 0.9
        d = hrp.corr_distance(corr, tickers(4))
        order = hrp.quasi_diag_order(hrp.single_linkage(hrp.codistance(d)))
        blocks = ({0, 1}, {2, 3})
        assert {order[0], order[1]} in blocks
        assert {order[2], order[3]} in blocks

    def test_output_is_permutation(self, rng):
        for _ in range(10):
            rets = random_returns(rng, 40, 7)
            tree = hrp.single_linkage(hrp.codistance(distances(rets)))
            order = hrp.quasi_diag_order(tree)
            assert sorted(order) == list(range(7))

    def test_two_leaf_tree(self):
        tree = hrp.single_linkage(dist([[0.0, 0.5], [0.5, 0.0]]))
        assert hrp.quasi_diag_order(tree) == [0, 1]


class TestClusterVariance:
    def test_single_asset(self):
        assert hrp.cluster_variance(np.array([[0.33]])) == pytest.approx(0.33, abs=1e-15)

    def test_equal_diagonal(self):
        assert hrp.cluster_variance(np.diag([1.0, 1.0])) == pytest.approx(0.5, abs=1e-15)

    def test_distinct_diagonal(self):
        # w = [2/3, 1/3]; w'Vw = 4/9 + 2/9 = 2/3
        assert hrp.cluster_variance(np.diag([1.0, 2.0])) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_variance_floored(self):
        value = hrp.cluster_variance(np.zeros((2, 2)))
        assert value >= 0.0
        assert np.isfinite(value)


class TestRecursiveBisection:
    def _bisect(self, values, order):
        return hrp.recursive_bisection(checked_covariance(values), order)

    def test_two_assets(self):
        w = self._bisect(np.diag([1.0, 2.0]), [0, 1])
        assert w == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_isotropic_equal_weights(self):
        w = self._bisect(0.5 * np.eye(4), [0, 1, 2, 3])
        assert w == pytest.approx([0.25] * 4, abs=1e-12)

    def test_hand_traced_four_assets(self):
        w = self._bisect(np.diag([1.0, 1.0, 2.0, 2.0]), [0, 1, 2, 3])
        assert w == pytest.approx([1 / 3, 1 / 3, 1 / 6, 1 / 6], abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_equals_inverse_variance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        variances = rng.uniform(0.2, 5.0, size=n)
        order = rng.permutation(n).tolist()
        w = self._bisect(np.diag(variances), order)
        ivp = (1 / variances) / (1 / variances).sum()
        assert np.max(np.abs(w - ivp)) < 1e-9


class TestHrpWeights:
    def test_two_assets_exact_inverse_variance(self, rng):
        values = rng.normal(0, 0.01, size=(60, 2)) * np.array([1.0, 2.5])
        rets = make_returns(values)
        w = hrp.hrp_weights(rets)[1]
        var = np.var(values, axis=0, ddof=1)
        ivp = (1 / var) / (1 / var).sum()
        assert w == pytest.approx(ivp, abs=1e-12)

    def test_iid_near_equal_weights(self):
        rng = np.random.default_rng(31)
        rets = make_returns(rng.normal(0.0, 0.01, size=(2000, 5)))
        w = hrp.hrp_weights(rets)[1]
        assert np.max(np.abs(w - 0.2)) < 0.05

    def test_independent_assets_near_ivp(self):
        rng = np.random.default_rng(55)
        scales = np.array([0.5, 0.8, 1.0, 1.3, 1.7, 2.2])
        values = rng.normal(0.0, 0.01, size=(3000, 6)) * scales
        w = hrp.hrp_weights(make_returns(values))[1]
        var = np.var(values, axis=0, ddof=1)
        ivp = (1 / var) / (1 / var).sum()
        assert np.max(np.abs(w - ivp)) < 0.02

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_weights_positive_and_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        t = int(rng.integers(20, 60))
        w = hrp.hrp_weights(random_returns(rng, t, n))[1]
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-9

    def test_label_equivariance_under_permutation(self):
        rng = np.random.default_rng(404)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            values = rng.normal(0, 0.01, size=(40, n)) * rng.uniform(0.5, 2.0, size=n)
            rets = make_returns(values)
            base = dict(zip(rets.tickers, hrp.hrp_weights(rets)[1]))
            perm = rng.permutation(n)
            permuted = make_returns(
                values[:, perm], tickers=tuple(rets.tickers[p] for p in perm)
            )
            shuffled = dict(zip(permuted.tickers, hrp.hrp_weights(permuted)[1]))
            assert max(abs(base[t] - shuffled[t]) for t in base) < 1e-9

    def test_quasi_diagonalization_concentrates_mass(self):
        # the seriated covariance should carry at least as much weight
        # near the diagonal as the raw ordering
        rng = np.random.default_rng(77)
        block = np.kron(np.eye(2), np.full((3, 3), 0.9)) + 0.1 * np.eye(6)
        chol = np.linalg.cholesky(block)
        values = rng.normal(0, 0.01, size=(500, 6)) @ chol.T
        rets = make_returns(values[:, rng.permutation(6)])
        corr = correlation(rets)
        tree = hrp.single_linkage(hrp.codistance(hrp.corr_distance(corr, rets.tickers)))
        order = hrp.quasi_diag_order(tree)
        reordered = np.abs(corr[np.ix_(order, order)])
        raw = np.abs(corr)
        idx = np.arange(6)
        band = np.abs(idx[:, None] - idx[None, :]) <= 1
        assert reordered[band].sum() >= raw[band].sum()
