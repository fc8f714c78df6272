import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_returns, make_table
from portlab import analytics
from portlab.errors import (
    InsufficientDataError,
    NonFiniteError,
    UndefinedSharpeError,
)
from portlab.mvp import equal_weight


def _curve(returns, weights):
    return analytics.schedule_returns(returns, weights)[1]


class TestReturns:
    def test_simple_returns(self):
        rets = analytics.simple_returns(make_table([[100, 100], [110, 105], [99, 110.25]]))
        assert rets.values[:, 0] == pytest.approx([0.10, -0.10], abs=1e-12)
        assert rets.values[:, 1] == pytest.approx([0.05, 0.05], abs=1e-12)
        assert rets.dates == make_table(np.ones((3, 2))).dates[1:]

    def test_constant_prices_zero_returns(self):
        rets = analytics.simple_returns(make_table([[100, 7], [100, 7], [100, 7]]))
        assert np.all(rets.values == 0.0)

    def test_missing_cells_rejected(self):
        table = make_table([[100, 1], [math.nan, 2], [102, 3]])
        with pytest.raises(ValueError, match="forward_fill"):
            analytics.simple_returns(table)


class TestAnnualMean:
    def test_annualization_factor(self):
        rets = make_returns([[0.011, 0.0], [-0.009, 0.0], [0.03, 0.01]])
        assert np.array_equal(analytics.annual_mean(rets, 252), rets.values.mean(axis=0) * 252)

    def test_configurable_trading_days(self):
        rets = make_returns([[0.01, 0.0], [-0.01, 0.02], [0.0, 0.01]])
        mean = analytics.annual_mean(rets, trading_days=250)
        assert np.array_equal(mean, rets.values.mean(axis=0) * 250)
        assert mean == pytest.approx([0.0, 2.5], abs=1e-15)

    def test_insufficient_rows(self):
        rets = make_returns(np.empty((0, 2)))
        with pytest.raises(InsufficientDataError):
            analytics.annual_mean(rets, 252)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mean_names_the_asset(self):
        # both returns are 2**1017: finite, and so is their (zero) variance
        rets = make_returns([[0.01, 2.0**1017], [0.02, 2.0**1017]], tickers=("A", "B"))
        with pytest.raises(NonFiniteError, match="annual mean return of B overflows"):
            analytics.annual_mean(rets, 252)


class TestCovarianceCorrelation:
    def test_identical_columns(self):
        x = np.array([0.01, -0.02, 0.03, 0.0])
        rets = make_returns(np.column_stack([x, x]))
        cov = analytics.covariance(rets)
        corr = analytics.correlation(rets)
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert cov[0, 1] == pytest.approx(np.var(x, ddof=1), abs=1e-15)

    def test_anti_symmetric_columns(self):
        x = np.array([0.01, -0.02, 0.03, 0.0])
        corr = analytics.correlation(make_returns(np.column_stack([x, -x])))
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_column_degenerate_rule(self):
        x = np.array([0.01, -0.02, 0.03, 0.0])
        rets = make_returns(np.column_stack([x, np.zeros(4)]))
        corr = analytics.correlation(rets)
        cov = analytics.covariance(rets)
        assert corr[0, 1] == 0.0
        assert corr[1, 1] == 1.0
        assert cov[1, 1] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_corr_matrix_rejects_non_finite(self, bad):
        values = np.eye(3)
        values[0, 2] = values[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            analytics.checked_correlation(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cov_matrix_rejects_non_finite(self, bad):
        values = np.eye(3)
        values[0, 2] = values[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            analytics.checked_covariance(values)

    def test_cov_matrix_psd_check_scales_with_the_entries(self):
        # eigvalsh puts the zero eigenvalues of this rank-one matrix near -3e-8
        v = np.random.default_rng(3).normal(size=3)
        analytics.checked_covariance(np.outer(v, v) * 5e7)
        with pytest.raises(ValueError, match="positive semidefinite"):
            analytics.checked_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]) * 5e7)

    @pytest.mark.parametrize(
        ("values", "message"),
        [
            (np.ones((2, 3)), "covariance matrix must be square, got shape (2, 3)"),
            (np.ones(3), "covariance matrix must be square, got shape (3,)"),
            ([[1.0, 0.5], [0.5 + 1e-11, 1.0]], "covariance matrix must be symmetric within 1e-12"),
            ([[-1e-3, 0.0], [0.0, 1.0]], "covariance diagonal must be non-negative"),
        ],
        ids=["not-square", "one-axis", "asymmetric", "negative-variance"],
    )
    def test_checked_covariance_messages(self, values, message):
        with pytest.raises(ValueError) as exc:
            analytics.checked_covariance(values)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        ("values", "message"),
        [
            (np.ones((3, 2)), "correlation matrix must be square, got shape (3, 2)"),
            ([[1.0, 0.5], [0.4, 1.0]], "correlation matrix must be symmetric within 1e-12"),
            ([[1.0, 0.5], [0.5, 1.0 - 1e-16]], "correlation diagonal must be exactly 1"),
            ([[1.0, 1.5], [1.5, 1.0]], "correlation entries must lie in [-1, 1]"),
        ],
        ids=["not-square", "asymmetric", "diagonal", "out-of-range"],
    )
    def test_checked_correlation_messages(self, values, message):
        with pytest.raises(ValueError) as exc:
            analytics.checked_correlation(values)
        assert str(exc.value) == message

    @pytest.mark.filterwarnings("error")
    def test_overflowing_covariance_names_the_column(self):
        # squares of 1e300 overflow float64 although every return is finite
        values = np.array([[0.01, 1e300], [0.02, -1.0], [0.0, 1e300]])
        with pytest.raises(NonFiniteError, match="of B over 3 rows"):
            analytics.covariance_values(values, ("A", "B"))
        with pytest.raises(NonFiniteError, match="of B over 3 rows"):
            analytics.correlation_values(values, ("A", "B"))
        rets = make_returns(values, tickers=("A", "B"))
        for fn in (analytics.covariance, analytics.correlation):
            with pytest.raises(NonFiniteError, match="of B"):
                fn(rets)

    @given(st.integers(0, 2**31 - 1))
    def test_standardized_covariance_equals_correlation(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 0.02, size=(30, 4))
        std = values.std(axis=0, ddof=1)
        standardized = (values - values.mean(axis=0)) / std
        names = ("A", "B", "C", "D")
        cov_std = analytics.covariance_values(standardized, names)
        corr = analytics.correlation_values(values, names)
        assert np.max(np.abs(cov_std - corr)) < 1e-10


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_short_streams = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12).map(np.array)
_long_streams = st.tuples(st.integers(13, 4000), st.integers(0, 2**32 - 1)).map(
    lambda drawn: np.random.default_rng(drawn[1]).uniform(-1.0, 1.0, drawn[0])
)


class TestAnnualize:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(_short_streams, _long_streams),
        st.integers(-8, 3),
        st.sampled_from([252, 365]),
    )
    def test_equals_ndarray_methods_bit_for_bit(self, unit, exponent, trading_days):
        daily = unit * 10.0**exponent
        annual_return, annual_risk = analytics.annualize(daily, trading_days)
        assert _bits(annual_return) == _bits(float(daily.mean()) * trading_days)
        if daily.shape[0] >= 2:
            want_risk = float(daily.std(ddof=1)) * math.sqrt(trading_days)
        else:
            want_risk = 0.0
        assert _bits(annual_risk) == _bits(want_risk)

    def test_single_day_has_zero_risk(self):
        assert analytics.annualize(np.array([0.01]), 252) == (0.01 * 252, 0.0)


class TestOnSimplex:
    @pytest.mark.parametrize(
        "weights",
        [[0.25, 0.75], [-0.0, 1.0], [1.0], [[0.5, 0.5], [0.2, 0.8]], [0.5, 0.5 + 5e-10]],
        ids=["row", "negative-zero", "single", "2-d", "sum-within-tolerance"],
    )
    def test_accepts(self, weights):
        assert analytics.on_simplex(np.array(weights))

    @pytest.mark.parametrize(
        "weights",
        [
            [0.5, 0.6],
            [1.5, -0.5],
            [math.nan, 1.0],
            [[0.5, 0.5], [0.5, 0.6]],
            [[0.5, 0.5], [math.nan, 1.0]],
            [0.5, 0.5 + 2e-9],
            [0.5, 0.5 - 2e-9],
            [math.inf, 1.0],
        ],
        ids=[
            "sum-1.1",
            "negative",
            "nan",
            "2-d-second-row-off",
            "2-d-nan",
            "sum-off-by-2e-9",
            "sum-short-by-2e-9",
            "inf",
        ],
    )
    def test_rejects(self, weights):
        assert not analytics.on_simplex(np.array(weights))


class TestSharpe:
    def test_unit_sharpe(self):
        assert analytics.sharpe_ratio(0.10, 0.01, 0.09) == pytest.approx(1.0, abs=1e-12)

    def test_zero_excess_return(self):
        assert analytics.sharpe_ratio(0.03, 0.03, 0.5) == 0.0

    def test_derived_value(self):
        assert analytics.sharpe_ratio(0.376, 0.01, 0.216563) == pytest.approx(1.690042, abs=1e-5)

    def test_zero_volatility_error(self):
        with pytest.raises(UndefinedSharpeError):
            analytics.sharpe_ratio(0.1, 0.01, 0.0)


class TestCumulativeReturns:
    def test_constant_returns_compound(self):
        rets = make_returns(np.full((3, 2), 0.01))
        curve = _curve(rets, equal_weight(rets.tickers).weights)
        assert curve[-1] == pytest.approx(0.030301, abs=1e-12)

    def test_zero_returns_flat(self):
        rets = make_returns(np.zeros((4, 2)))
        assert np.all(_curve(rets, equal_weight(rets.tickers).weights) == 0.0)

    def test_single_asset_passthrough(self, rng):
        values = rng.normal(0.001, 0.01, size=(10, 3))
        rets = make_returns(values)
        curve = _curve(rets, np.array([0.0, 1.0, 0.0]))
        expect = np.cumprod(1 + values[:, 1]) - 1
        assert curve == pytest.approx(expect, abs=1e-14)

    def test_equal_weights_match_row_mean_compounding(self, rng):
        values = rng.normal(0.0, 0.02, size=(15, 5))
        rets = make_returns(values)
        curve = _curve(rets, equal_weight(rets.tickers).weights)
        expect = np.cumprod(1 + values.mean(axis=1)) - 1
        assert np.max(np.abs(curve - expect)) < 1e-12

    def test_superset_schedule_errors(self):
        # a schedule must hold one row per return row, not merely cover them
        rets = make_returns(np.full((3, 2), 0.01))
        with pytest.raises(ValueError, match="one row per return row"):
            _curve(rets, np.full((5, 2), 0.5))

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (1, 2), (4, 2, 1), ()], ids=str)
    def test_schedule_of_another_shape_errors(self, shape):
        rets = make_returns(np.full((4, 2), 0.01))
        weights = np.full(shape, 1.0 / shape[-1] if shape else 1.0)
        with pytest.raises(ValueError, match="one row per return row"):
            _curve(rets, weights)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_held_row_gives_the_bits_of_its_tile(self, n_rows, n_assets, seed):
        # the static methods pass one row, which is broadcast; a tiled
        # schedule must give the same daily returns and curve, bit for bit
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-6, 0, size=n_assets)
        rets = make_returns(rng.normal(0.0, 1.0, size=(n_rows, n_assets)) * scale)
        draws = rng.uniform(0.0, 1.0, size=n_assets) + 1e-3
        row = draws / draws.sum()
        daily, curve = analytics.schedule_returns(rets, row)
        tiled_daily, tiled_curve = analytics.schedule_returns(rets, np.tile(row, (n_rows, 1)))
        assert np.array_equal(daily, tiled_daily)
        assert np.array_equal(curve, tiled_curve)

    def test_daily_returns_are_weighted_row_sums(self, rng):
        values = rng.normal(0.0, 0.02, size=(12, 3))
        rets = make_returns(values)
        weights = rng.dirichlet(np.ones(3), size=12)
        daily, curve = analytics.schedule_returns(rets, weights)
        assert np.array_equal(daily, (values * weights).sum(axis=1))
        assert np.array_equal(curve, np.cumprod(1.0 + daily) - 1.0)
