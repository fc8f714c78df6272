import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_returns, make_table
from oracles import checked_correlation, checked_covariance, on_simplex
from portlab import analytics
from portlab.errors import NonFiniteError, UndefinedSharpeError
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


class TestAnnualMean:
    def test_annualization_factor(self):
        rets = make_returns([[0.011, 0.0], [-0.009, 0.0], [0.03, 0.01]])
        assert np.array_equal(analytics.annual_mean(rets, 252), rets.values.mean(axis=0) * 252)

    def test_configurable_trading_days(self):
        rets = make_returns([[0.01, 0.0], [-0.01, 0.02], [0.0, 0.01]])
        mean = analytics.annual_mean(rets, trading_days=250)
        assert np.array_equal(mean, rets.values.mean(axis=0) * 250)
        assert mean == pytest.approx([0.0, 2.5], abs=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mean_names_the_asset(self):
        # both returns are 2**1017: finite, and so is their (zero) variance
        rets = make_returns([[0.01, 2.0**1017], [0.02, 2.0**1017]], tickers=("A", "B"))
        with pytest.raises(NonFiniteError, match="annual mean return of B overflows"):
            analytics.annual_mean(rets, 252)


class TestCovarianceCorrelation:
    def test_identical_columns(self):
        x = np.array([0.01, -0.02, 0.03, 0.0])
        values = np.column_stack([x, x])
        cov = analytics.covariance_values(values, ("A", "B"))
        corr = analytics.correlation_values(values, ("A", "B"))
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert cov[0, 1] == pytest.approx(np.var(x, ddof=1), abs=1e-15)

    def test_anti_symmetric_columns(self):
        x = np.array([0.01, -0.02, 0.03, 0.0])
        corr = analytics.correlation_values(np.column_stack([x, -x]), ("A", "B"))
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_column_degenerate_rule(self):
        x = np.array([0.01, -0.02, 0.03, 0.0])
        values = np.column_stack([x, np.zeros(4)])
        corr = analytics.correlation_values(values, ("A", "B"))
        cov = analytics.covariance_values(values, ("A", "B"))
        assert corr[0, 1] == 0.0
        assert corr[1, 1] == 1.0
        assert cov[1, 1] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_corr_matrix_rejects_non_finite(self, bad):
        values = np.eye(3)
        values[0, 2] = values[2, 0] = bad
        with pytest.raises(AssertionError, match="finite"):
            checked_correlation(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cov_matrix_rejects_non_finite(self, bad):
        values = np.eye(3)
        values[0, 2] = values[2, 0] = bad
        with pytest.raises(AssertionError, match="finite"):
            checked_covariance(values)

    def test_cov_matrix_psd_check_scales_with_the_entries(self):
        # eigvalsh puts the zero eigenvalues of this rank-one matrix near -3e-8
        v = np.random.default_rng(3).normal(size=3)
        checked_covariance(np.outer(v, v) * 5e7)
        with pytest.raises(AssertionError, match="positive semidefinite"):
            checked_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]) * 5e7)

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
        with pytest.raises(AssertionError) as exc:
            checked_covariance(values)
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
        with pytest.raises(AssertionError) as exc:
            checked_correlation(values)
        assert str(exc.value) == message

    @pytest.mark.filterwarnings("error")
    def test_overflowing_covariance_names_the_column(self):
        # squares of 1e300 overflow float64 although every return is finite
        values = np.array([[0.01, 1e300], [0.02, -1.0], [0.0, 1e300]])
        with pytest.raises(NonFiniteError, match="of B over 3 rows"):
            analytics.covariance_values(values, ("A", "B"))
        with pytest.raises(NonFiniteError, match="of B over 3 rows"):
            analytics.correlation_values(values, ("A", "B"))

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


def _np_cov_correlation(window: np.ndarray) -> np.ndarray:
    """The correlation as written on ``np.cov`` before the stacked routine replaced it."""
    cov = np.atleast_2d(np.cov(window, rowvar=False, ddof=1))
    var = np.diag(cov)
    degenerate = var <= analytics.VARIANCE_FLOOR
    std = np.sqrt(np.where(degenerate, 1.0, var))
    corr = cov / np.outer(std, std)
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


@st.composite
def _window_stacks(draw):
    """Overlapping windows of one random table, some columns constant, as a strided view."""
    n_assets = draw(st.integers(1, 12))
    window = draw(st.integers(2, 40))
    step = draw(st.integers(1, 7))
    n_rows = window + step * draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 1.0, size=(n_rows, n_assets)) * 10.0 ** rng.uniform(-4, 2, n_assets)
    constant = draw(st.lists(st.integers(0, n_assets - 1), max_size=3))
    values[:, constant] = 0.25
    stack = np.lib.stride_tricks.sliding_window_view(values, window, axis=0)[::step]
    return stack.swapaxes(1, 2)


class TestStackedWindows:
    @settings(max_examples=150, deadline=None)
    @given(_window_stacks())
    def test_each_window_gets_the_bits_of_np_cov_and_of_its_own_call(self, stack):
        # np.cov's bits hold under the SkylakeX and Haswell OpenBLAS kernels,
        # not under Prescott's (see covariance_values)
        names = [f"T{i}" for i in range(stack.shape[2])]
        cov = analytics.covariance_values(stack, names)
        corr = analytics.correlation_values(stack, names)
        assert cov.shape == corr.shape == (stack.shape[0], stack.shape[2], stack.shape[2])
        for k, window in enumerate(stack):
            want = np.atleast_2d(np.cov(window, rowvar=False, ddof=1))
            assert np.array_equal(cov[k], want)
            assert np.array_equal(cov[k], analytics.covariance_values(window, names))
            assert np.array_equal(corr[k], _np_cov_correlation(window))
            assert np.array_equal(corr[k], analytics.correlation_values(window, names))

    def test_constant_columns_correlate_zero(self):
        values = np.array([[0.1, 2.0, 0.3], [0.2, 2.0, 0.1], [0.4, 2.0, 0.0]])
        corr = analytics.correlation_values(np.stack([values, values[::-1]]), "ABC")
        assert np.array_equal(corr[:, 1], [[0.0, 1.0, 0.0]] * 2)
        assert np.array_equal(corr[:, :, 1], [[0.0, 1.0, 0.0]] * 2)

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_the_column_of_the_first_window_that_has_one(self):
        calm = np.array([[0.01, 0.02], [0.02, -0.01], [0.0, 0.01]])
        stack = np.stack([calm, calm[:, ::-1].copy(), calm])
        stack[1, :, 1] = [1e300, -1.0, 1e300]  # column B of the second window
        stack[2, :, 0] = [1e300, -1.0, 1e300]  # column A of the third
        for fn in (analytics.covariance_values, analytics.correlation_values):
            with pytest.raises(NonFiniteError, match="of B over 3 rows"):
                fn(stack, ("A", "B"))

    def test_two_rows_is_the_least_a_stack_may_have(self):
        values = np.array([[[1.0, 2.0], [3.0, 5.0]]])
        assert np.array_equal(analytics.covariance_values(values, "AB"), [[[2.0, 3.0], [3.0, 4.5]]])


@st.composite
def _return_tables(draw):
    """A ``(T, N)`` table or a ``(K, T, N)`` stack, columns scaled 1e-8 to 1e3, some constant."""
    n_assets = draw(st.integers(1, 12))
    n_rows = draw(st.integers(2, 60))
    stack = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 5))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-8, 3, n_assets)
    values = rng.normal(0.0, 1.0, size=(*stack, n_rows, n_assets)) * scale
    constant = draw(st.lists(st.integers(0, n_assets - 1), max_size=3))
    values[..., constant] = draw(st.sampled_from([0.0, 0.25, -3e-5]))
    return values


class TestPostConditions:
    """What the deleted covariance and correlation checks asserted still holds."""

    @settings(max_examples=200, deadline=None)
    @given(_return_tables())
    def test_covariance_and_correlation_are_what_they_claim(self, values):
        n = values.shape[-1]
        names = [f"T{i}" for i in range(n)]
        covs = analytics.covariance_values(values, names).reshape(-1, n, n)
        corrs = analytics.correlation_values(values, names).reshape(-1, n, n)
        for cov, corr in zip(covs, corrs):
            assert np.array_equal(cov, cov.T)
            assert np.array_equal(corr, corr.T)
            checked_covariance(cov)
            checked_correlation(corr)


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
        assert on_simplex(np.array(weights))

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
        assert not on_simplex(np.array(weights))


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
        curve = _curve(rets, equal_weight(rets.n_assets))
        assert curve[-1] == pytest.approx(0.030301, abs=1e-12)

    def test_zero_returns_flat(self):
        rets = make_returns(np.zeros((4, 2)))
        assert np.all(_curve(rets, equal_weight(rets.n_assets)) == 0.0)

    def test_single_asset_passthrough(self, rng):
        values = rng.normal(0.001, 0.01, size=(10, 3))
        rets = make_returns(values)
        curve = _curve(rets, np.array([0.0, 1.0, 0.0]))
        expect = np.cumprod(1 + values[:, 1]) - 1
        assert curve == pytest.approx(expect, abs=1e-14)

    def test_equal_weights_match_row_mean_compounding(self, rng):
        values = rng.normal(0.0, 0.02, size=(15, 5))
        rets = make_returns(values)
        curve = _curve(rets, equal_weight(rets.n_assets))
        expect = np.cumprod(1 + values.mean(axis=1)) - 1
        assert np.max(np.abs(curve - expect)) < 1e-12

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
