import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_cov, read_frontier_csv
from oracles import SingularMatrixError, checked_covariance, closed_form_min_variance
from portlab import mvp
from portlab.errors import NonFiniteError, UndefinedSharpeError


def synthetic_ten_asset_case():
    """Pinned 10-asset daily covariance and annual means for oracle checks."""
    rng = np.random.default_rng(42)
    data = rng.normal(0, 1.0, size=(250, 10)) * rng.uniform(0.009, 0.012, size=10)
    sigma = np.atleast_2d(np.cov(data, rowvar=False, ddof=1))
    mu = rng.uniform(0.05, 0.25, size=10)
    return mu, sigma


def sample_cloud(mu, sigma, count: int, risk_free: float, seed: int) -> np.ndarray:
    """``mvp.sample_portfolios`` on a checked covariance array, annualized by 252 days."""
    return mvp.sample_portfolios(mu, checked_covariance(sigma), count, risk_free, seed, 252)


def annual_vol(weights: np.ndarray, sigma: np.ndarray, trading_days: int = 252) -> float:
    return math.sqrt(max(float(weights @ sigma @ weights), 0.0) * trading_days)


def vols(cloud: np.ndarray) -> np.ndarray:
    return cloud[:, mvp.VOLATILITY]


def weights(cloud: np.ndarray) -> np.ndarray:
    return cloud[:, mvp.FIRST_WEIGHT :]


def hand_cloud(rows, risk_free: float) -> np.ndarray:
    """Cloud from ``(volatility, return, weights)`` rows with consistent Sharpes."""
    return np.array([[vol, ret, (ret - risk_free) / vol, *w] for vol, ret, w in rows])


def row_tuple(cloud: np.ndarray, i: int) -> tuple:
    return (*cloud[i, : mvp.FIRST_WEIGHT].tolist(), cloud[i, mvp.FIRST_WEIGHT :].tolist())


class TestEqualWeight:
    def test_ten_assets(self):
        w = mvp.equal_weight(10)
        assert w.shape == (10,)
        assert np.all(w == 0.1)

    def test_single_asset(self):
        assert mvp.equal_weight(1).tolist() == [1.0]

    def test_four_assets(self):
        assert np.all(mvp.equal_weight(4) == 0.25)


class TestSamplePortfolios:
    def test_count_and_seeded_determinism(self):
        mu, sigma = synthetic_ten_asset_case()
        a = sample_cloud(mu, sigma, 500, 0.01, seed=3)
        b = sample_cloud(mu, sigma, 500, 0.01, seed=3)
        assert a.shape == (500, 3 + 10)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        mu, sigma = synthetic_ten_asset_case()
        a = sample_cloud(mu, sigma, 100, 0.01, seed=3)
        b = sample_cloud(mu, sigma, 100, 0.01, seed=4)
        assert not np.array_equal(vols(a), vols(b))

    def test_prefix_stability_across_counts(self):
        # chunked sampling: a shorter cloud is a prefix of a longer one
        mu, sigma = synthetic_ten_asset_case()
        small = sample_cloud(mu, sigma, 700, 0.01, seed=9)
        large = sample_cloud(mu, sigma, 1500, 0.01, seed=9)
        assert np.array_equal(small, large[:700])

    def test_single_asset_degenerate(self):
        cloud = sample_cloud(
            np.array([0.1]), np.array([[1e-4]]), 50, 0.01, seed=1
        )
        assert np.all(weights(cloud) == 1.0)
        assert np.unique(vols(cloud)).size == 1

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weights_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        sigma = random_cov(rng, n)
        mu = rng.uniform(0.0, 0.3, size=n)
        cloud = sample_cloud(mu, sigma, 64, 0.01, seed=seed)
        assert np.all(weights(cloud) >= 0)
        assert np.max(np.abs(weights(cloud).sum(axis=1) - 1.0)) < 1e-9

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_volatility_is_the_quadratic_form(self, seed):
        # each row's einsum variance against the explicit w' S w of that row
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        sigma = random_cov(rng, n)
        cloud = sample_cloud(rng.uniform(0.0, 0.3, size=n), sigma, 64, 0.01, seed=seed)
        for w, vol in zip(weights(cloud), vols(cloud)):
            assert vol == pytest.approx(annual_vol(w, sigma), rel=1e-12, abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("daily_var", "risk_free"), [(1e307, 0.01), (1e-4, 1e308)], ids=["volatility", "sharpe"]
    )
    def test_overflow_raises_non_finite_error(self, daily_var, risk_free):
        sigma = np.eye(2) * daily_var
        with pytest.raises(NonFiniteError, match="overflows float64"):
            sample_cloud(np.array([0.1, 0.1]), sigma, 10, risk_free, seed=1)


class TestFrontierCloudInvariants:
    """What :func:`mvp.sample_portfolios` guarantees of the cloud array it returns."""

    def test_sampled_cloud_is_one_read_only_array(self):
        # the array the sampler fills is the one it returns: no second copy
        mu, sigma = synthetic_ten_asset_case()
        cloud = sample_cloud(mu, sigma, 2500, 0.01, seed=3)
        assert type(cloud) is np.ndarray and cloud.dtype == np.float64
        assert cloud.flags.owndata
        assert not cloud.flags.writeable

    def test_nan_sharpe_rejected(self):
        with pytest.raises(NonFiniteError, match="Sharpe ratio"):
            sample_cloud(np.array([0.1, np.nan]), np.eye(2) * 1e-4, 10, 0.01, seed=1)

    def test_nan_risk_free_rejected(self):
        with pytest.raises(NonFiniteError, match="risk_free nan"):
            sample_cloud(np.array([0.1]), np.array([[1e-4]]), 10, np.nan, seed=1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vol", [0.0, -0.1, np.nan])
    def test_non_positive_volatility_rejected(self, vol):
        # a zero, negative (floored at zero) or NaN daily variance: no Sharpe ratio
        with pytest.raises(UndefinedSharpeError, match="zero or undefined volatility"):
            mvp.sample_portfolios(np.array([0.1]), np.array([[vol]]), 10, 0.01, 1, 252)


class TestMinRiskAndMaxSharpe:
    def _hand_cloud(self):
        # row 0 dominates row 1: higher return at lower volatility
        return hand_cloud(
            [(0.10, 0.30, [1.0, 0.0]), (0.20, 0.20, [0.0, 1.0])], risk_free=0.01
        )

    def test_dominant_point_wins_both(self):
        cloud = self._hand_cloud()
        row0 = (0.10, 0.30, (0.30 - 0.01) / 0.10, [1.0, 0.0])
        assert row_tuple(cloud, 0) == row0
        assert mvp.min_risk_row(cloud) == 0
        assert mvp.max_sharpe_row(cloud) == 0

    def test_singleton_cloud(self):
        cloud = hand_cloud([(0.2, 0.1, [1.0])], risk_free=0.01)
        only = (0.2, 0.1, (0.1 - 0.01) / 0.2, [1.0])
        assert row_tuple(cloud, mvp.min_risk_row(cloud)) == only
        assert row_tuple(cloud, mvp.max_sharpe_row(cloud)) == only

    def test_two_asset_equal_variance_optimum_is_half_half(self):
        sigma = np.diag([1e-4, 1e-4])
        cloud = sample_cloud(
            np.array([0.1, 0.1]), sigma, 10_000, 0.01, seed=11
        )
        best = mvp.min_risk_row(cloud)
        assert weights(cloud)[best] == pytest.approx([0.5, 0.5], abs=0.05)

    def test_argmax_contract(self):
        mu, sigma = synthetic_ten_asset_case()
        cloud = sample_cloud(mu, sigma, 2000, 0.01, seed=5)
        best = mvp.max_sharpe_row(cloud)
        assert cloud[best, mvp.SHARPE] >= cloud[:, mvp.SHARPE].max()

    def test_sharpe_invariant_as_stored(self):
        mu, sigma = synthetic_ten_asset_case()
        cloud = sample_cloud(mu, sigma, 500, 0.013, seed=5)
        vol, ret, sharpe, _ = row_tuple(cloud, mvp.max_sharpe_row(cloud))
        assert abs(sharpe - (ret - 0.013) / vol) <= 1e-9

    def test_mc_min_vol_vs_closed_form(self):
        mu, sigma = synthetic_ten_asset_case()
        oracle = closed_form_min_variance(sigma)
        assert oracle.long_only
        vol_star = annual_vol(oracle.weights, sigma)
        cloud = sample_cloud(mu, sigma, 10_000, 0.01, seed=7)
        vol_mc = vols(cloud)[mvp.min_risk_row(cloud)]
        assert vol_mc >= vol_star
        assert (vol_mc - vol_star) / vol_star < 0.05

    def test_min_vol_monotone_in_sample_count(self):
        mu, sigma = synthetic_ten_asset_case()
        lows = []
        for count in (500, 1500, 4000):
            cloud = sample_cloud(mu, sigma, count, 0.01, seed=13)
            lows.append(vols(cloud)[mvp.min_risk_row(cloud)])
        assert lows[0] >= lows[1] >= lows[2]


class TestEfficientFrontier:
    def test_identical_points_collapse(self):
        cloud = hand_cloud([(0.2, 0.1, [1.0])] * 3, risk_free=0.01)
        frontier = mvp.efficient_frontier(cloud, bins=10)
        assert len(frontier) == 1

    def test_single_bin_is_global_max_return(self):
        mu, sigma = synthetic_ten_asset_case()
        cloud = sample_cloud(mu, sigma, 1000, 0.01, seed=2)
        frontier = mvp.efficient_frontier(cloud, bins=1)
        assert len(frontier) == 1
        assert cloud[frontier[0], mvp.RETURN] == cloud[:, mvp.RETURN].max()

    def test_points_dominate_their_bins(self):
        mu, sigma = synthetic_ten_asset_case()
        cloud = sample_cloud(mu, sigma, 1000, 0.01, seed=2)
        vol = vols(cloud)
        rets = cloud[:, mvp.RETURN]
        vmin, vmax = vol.min(), vol.max()
        # at 10**12 nearly every point has a bin of its own, and the
        # selection must not visit the empty ones
        for bins in (20, 10**12):
            frontier = mvp.efficient_frontier(cloud, bins=bins)
            # the first maximum-return point of each occupied bin
            best: dict[int, int] = {}
            for i in range(len(vol)):
                b = min(int((vol[i] - vmin) / (vmax - vmin) * bins), bins - 1)
                if b not in best or rets[i] > rets[best[b]]:
                    best[b] = i
            assert frontier.tolist() == sorted(best.values(), key=lambda i: (vol[i], i))


class TestClosedFormMinVariance:
    def test_diagonal_inverse_variance(self):
        result = closed_form_min_variance(np.diag([0.04, 0.01]))
        assert result.weights == pytest.approx([0.2, 0.8], abs=1e-12)
        assert result.long_only

    def test_isotropic_gives_equal_weights(self):
        result = closed_form_min_variance(0.02 * np.eye(5))
        assert result.weights == pytest.approx([0.2] * 5, abs=1e-12)

    def test_three_asset_against_hand_solve(self):
        sigma = np.array(
            [
                [4.0, 1.2, 0.8],
                [1.2, 9.0, -0.5],
                [0.8, -0.5, 16.0],
            ]
        ) * 1e-4

        # independent oracle: solve sigma x = 1 by hand-rolled Cramer's rule
        def det3(m):
            return (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )

        ones = [1.0, 1.0, 1.0]
        d = det3(sigma)
        x = []
        for col in range(3):
            m = sigma.copy()
            m[:, col] = ones
            x.append(det3(m) / d)
        expect = np.array(x) / sum(x)

        result = closed_form_min_variance(sigma)
        assert result.weights == pytest.approx(expect, abs=1e-10)

    def test_negative_weights_flagged(self):
        # strong positive correlation pushes the unconstrained solution short
        sigma = np.array([[1.0, 0.95], [0.95, 1.5]]) * 1e-4
        result = closed_form_min_variance(sigma)
        assert abs(result.weights.sum() - 1.0) < 1e-9
        if np.any(result.weights < 0):
            assert not result.long_only

    def test_singular_matrix_regularized(self):
        # rank-1 matrix: solvable only after the +1e-10 I nudge
        v = np.array([1.0, 2.0])
        sigma = np.outer(v, v) * 1e-4
        result = closed_form_min_variance(sigma)
        assert abs(result.weights.sum() - 1.0) < 1e-9

    def test_zero_matrix_regularizes_to_equal_weights(self):
        result = closed_form_min_variance(np.zeros((2, 2)))
        assert result.weights == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_unsolvable_matrix_errors(self):
        sigma = np.full((2, 2), np.nan)
        with pytest.raises(SingularMatrixError):
            closed_form_min_variance(sigma)


class TestFrontierCsv:
    def test_round_trip(self, tmp_path):
        mu, sigma = synthetic_ten_asset_case()
        cloud = sample_cloud(mu, sigma, 250, 0.01, seed=21)
        path = tmp_path / "frontier.csv"
        mvp.write_frontier_csv(cloud, path)
        data = read_frontier_csv(path)
        assert data.shape == (250, 3 + 10)
        assert np.array_equal(data, cloud)
