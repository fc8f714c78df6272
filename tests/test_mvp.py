import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_cov, read_frontier_csv
from oracles import SingularMatrixError, closed_form_min_variance
from portlab import mvp
from portlab.analytics import checked_covariance
from portlab.errors import NonFiniteError


def synthetic_ten_asset_case():
    """Pinned 10-asset daily covariance and annual means for oracle checks."""
    rng = np.random.default_rng(42)
    data = rng.normal(0, 1.0, size=(250, 10)) * rng.uniform(0.009, 0.012, size=10)
    sigma = np.atleast_2d(np.cov(data, rowvar=False, ddof=1))
    mu = rng.uniform(0.05, 0.25, size=10)
    return mu, sigma


def sample_cloud(mu, sigma, count: int, risk_free: float, seed: int) -> mvp.FrontierCloud:
    """``mvp.sample_portfolios`` on a checked covariance array, annualized by 252 days."""
    return mvp.sample_portfolios(mu, checked_covariance(sigma), count, risk_free, seed, 252)


def annual_vol(weights: np.ndarray, sigma: np.ndarray, trading_days: int = 252) -> float:
    return math.sqrt(max(float(weights @ sigma @ weights), 0.0) * trading_days)


def hand_cloud(rows, risk_free: float) -> mvp.FrontierCloud:
    """Cloud from ``(volatility, return, weights)`` rows with consistent Sharpes."""
    vols = np.array([r[0] for r in rows])
    rets = np.array([r[1] for r in rows])
    weights = np.array([r[2] for r in rows], dtype=float)
    sharpes = (rets - risk_free) / vols
    return mvp.FrontierCloud(vols, rets, sharpes, weights, risk_free=risk_free)


def row_tuple(cloud: mvp.FrontierCloud, i: int) -> tuple:
    return (
        float(cloud.volatilities[i]),
        float(cloud.returns[i]),
        float(cloud.sharpes[i]),
        cloud.weights[i].tolist(),
    )


class TestEqualWeight:
    def test_ten_assets(self):
        port = mvp.equal_weight(tuple("ABCDEFGHIJ"))
        assert port.tickers == tuple("ABCDEFGHIJ")
        assert np.all(port.weights == 0.1)

    def test_single_asset(self):
        assert mvp.equal_weight(("A",)).weights.tolist() == [1.0]

    def test_four_assets(self):
        assert np.all(mvp.equal_weight(("A", "B", "C", "D")).weights == 0.25)

    def test_zero_assets_rejected(self):
        with pytest.raises(ValueError):
            mvp.equal_weight(())


class TestSamplePortfolios:
    def test_count_and_seeded_determinism(self):
        mu, sigma = synthetic_ten_asset_case()
        a = sample_cloud(mu, sigma, 500, 0.01, seed=3)
        b = sample_cloud(mu, sigma, 500, 0.01, seed=3)
        assert a.volatilities.shape[0] == a.weights.shape[0] == 500
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.volatilities, b.volatilities)

    def test_different_seed_differs(self):
        mu, sigma = synthetic_ten_asset_case()
        a = sample_cloud(mu, sigma, 100, 0.01, seed=3)
        b = sample_cloud(mu, sigma, 100, 0.01, seed=4)
        assert not np.array_equal(a.volatilities, b.volatilities)

    def test_prefix_stability_across_counts(self):
        # chunked sampling: a shorter cloud is a prefix of a longer one
        mu, sigma = synthetic_ten_asset_case()
        small = sample_cloud(mu, sigma, 700, 0.01, seed=9)
        large = sample_cloud(mu, sigma, 1500, 0.01, seed=9)
        assert np.array_equal(small.volatilities, large.volatilities[:700])

    def test_single_asset_degenerate(self):
        cloud = sample_cloud(
            np.array([0.1]), np.array([[1e-4]]), 50, 0.01, seed=1
        )
        assert np.all(cloud.weights == 1.0)
        assert np.unique(cloud.volatilities).size == 1

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weights_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        sigma = random_cov(rng, n)
        mu = rng.uniform(0.0, 0.3, size=n)
        cloud = sample_cloud(mu, sigma, 64, 0.01, seed=seed)
        assert np.all(cloud.weights >= 0)
        assert np.max(np.abs(cloud.weights.sum(axis=1) - 1.0)) < 1e-9

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_volatility_is_the_quadratic_form(self, seed):
        # each row's einsum variance against the explicit w' S w of that row
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        sigma = random_cov(rng, n)
        cloud = sample_cloud(rng.uniform(0.0, 0.3, size=n), sigma, 64, 0.01, seed=seed)
        for weights, vol in zip(cloud.weights, cloud.volatilities):
            assert vol == pytest.approx(annual_vol(weights, sigma), rel=1e-12, abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("daily_var", "risk_free"), [(1e307, 0.01), (1e-4, 1e308)], ids=["volatility", "sharpe"]
    )
    def test_overflow_raises_non_finite_error(self, daily_var, risk_free):
        sigma = np.eye(2) * daily_var
        with pytest.raises(NonFiniteError, match="overflows float64"):
            sample_cloud(np.array([0.1, 0.1]), sigma, 10, risk_free, seed=1)

    def test_count_must_be_positive(self):
        mu, sigma = synthetic_ten_asset_case()
        with pytest.raises(ValueError):
            sample_cloud(mu, sigma, 0, 0.01, seed=1)


class TestFrontierCloudInvariants:
    def test_arrays_are_read_only_copies(self):
        # a list, another dtype and a view of a writable array are copied,
        # so writing to what the caller holds leaves the cloud unchanged
        table = np.array([[0.5, 0.5, 0.1]])
        for weights in ([[0.5, 0.5]], np.array([[0.5, 0.5]], dtype=np.float32), table[:, :2]):
            cloud = mvp.FrontierCloud(
                np.array([0.1]), np.array([0.2]), np.array([1.9]), weights, risk_free=0.01
            )
            weights[0][0] = 7.0
            assert cloud.weights.tolist() == [[0.5, 0.5]]
            assert cloud.weights.dtype == np.float64
            for values in (cloud.volatilities, cloud.returns, cloud.sharpes, cloud.weights):
                assert not values.flags.writeable

    def test_sampled_arrays_are_held_not_copied(self, monkeypatch):
        made = []
        cloud_type = mvp.FrontierCloud

        def capture(*args, **kwargs):
            made.append(args[:4])
            return cloud_type(*args, **kwargs)

        monkeypatch.setattr(mvp, "FrontierCloud", capture)
        mu, sigma = synthetic_ten_asset_case()
        cloud = sample_cloud(mu, sigma, 2500, 0.01, seed=3)
        held = (cloud.volatilities, cloud.returns, cloud.sharpes, cloud.weights)
        for values, given_values in zip(held, made[0]):
            assert values is given_values
            assert not values.flags.writeable

    def test_off_simplex_row_rejected(self):
        with pytest.raises(ValueError, match="simplex"):
            hand_cloud([(0.1, 0.2, [0.5, 0.5]), (0.1, 0.2, [0.5, 0.6])], risk_free=0.01)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="simplex"):
            hand_cloud([(0.1, 0.2, [1.5, -0.5])], risk_free=0.01)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="simplex"):
            hand_cloud([(0.1, 0.2, [np.nan, 1.0])], risk_free=0.01)

    def test_nan_sharpe_rejected(self):
        with pytest.raises(ValueError, match="Sharpe"):
            mvp.FrontierCloud(
                np.array([0.1, 0.2]),
                np.array([0.2, 0.3]),
                np.array([1.9, np.nan]),
                np.array([[1.0, 0.0], [0.0, 1.0]]),
                risk_free=0.01,
            )

    def test_nan_risk_free_rejected(self):
        with pytest.raises(ValueError, match="Sharpe"):
            hand_cloud([(0.1, 0.2, [1.0])], risk_free=np.nan)

    @pytest.mark.parametrize("vol", [0.0, -0.1, np.nan])
    def test_non_positive_volatility_rejected(self, vol):
        with pytest.raises(ValueError, match="volatilities"):
            mvp.FrontierCloud(
                np.array([vol]), np.array([0.2]), np.array([1.0]), np.array([[1.0]]),
                risk_free=0.01,
            )

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            mvp.FrontierCloud(
                np.array([0.1, 0.2]), np.array([0.2]), np.array([1.9]), np.array([[1.0]]),
                risk_free=0.01,
            )
        with pytest.raises(ValueError):
            mvp.FrontierCloud(
                np.array([0.1]), np.array([0.2]), np.array([1.9]), np.array([1.0]),
                risk_free=0.01,
            )

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            mvp.FrontierCloud(
                np.empty(0), np.empty(0), np.empty(0), np.empty((0, 2)), risk_free=0.01
            )


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
        assert cloud.weights[best] == pytest.approx([0.5, 0.5], abs=0.05)

    def test_argmax_contract(self):
        mu, sigma = synthetic_ten_asset_case()
        cloud = sample_cloud(mu, sigma, 2000, 0.01, seed=5)
        best = mvp.max_sharpe_row(cloud)
        assert cloud.sharpes[best] >= cloud.sharpes.max()

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
        vol_mc = cloud.volatilities[mvp.min_risk_row(cloud)]
        assert vol_mc >= vol_star
        assert (vol_mc - vol_star) / vol_star < 0.05

    def test_min_vol_monotone_in_sample_count(self):
        mu, sigma = synthetic_ten_asset_case()
        vols = []
        for count in (500, 1500, 4000):
            cloud = sample_cloud(mu, sigma, count, 0.01, seed=13)
            vols.append(cloud.volatilities[mvp.min_risk_row(cloud)])
        assert vols[0] >= vols[1] >= vols[2]


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
        assert cloud.returns[frontier[0]] == cloud.returns.max()

    def test_points_dominate_their_bins(self):
        mu, sigma = synthetic_ten_asset_case()
        cloud = sample_cloud(mu, sigma, 1000, 0.01, seed=2)
        vols = cloud.volatilities
        rets = cloud.returns
        vmin, vmax = vols.min(), vols.max()
        # at 10**12 nearly every point has a bin of its own, and the
        # selection must not visit the empty ones
        for bins in (20, 10**12):
            frontier = mvp.efficient_frontier(cloud, bins=bins)
            # the first maximum-return point of each occupied bin
            best: dict[int, int] = {}
            for i in range(len(vols)):
                b = min(int((vols[i] - vmin) / (vmax - vmin) * bins), bins - 1)
                if b not in best or rets[i] > rets[best[b]]:
                    best[b] = i
            assert frontier.tolist() == sorted(best.values(), key=lambda i: (vols[i], i))


class TestPortfolioInvariants:
    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            mvp.Portfolio(("A", "B"), np.array([0.5, 0.6]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            mvp.Portfolio(("A", "B"), np.array([np.nan, 1.0]))


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
        assert np.array_equal(data[:, 0], cloud.volatilities)
        assert np.array_equal(data[:, 3:], cloud.weights)
