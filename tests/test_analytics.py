import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import make_returns, make_table, weekdays
from portlab import analytics
from portlab.backtest import WeightSchedule, static_schedule
from portlab.errors import (
    AlignmentError,
    InsufficientDataError,
    NonFiniteError,
    UndefinedSharpeError,
)
from portlab.mvp import equal_weight


def _curve(returns, schedule):
    return analytics.schedule_returns(returns, schedule)[1]


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
        assert np.array_equal(analytics.annual_mean(rets), rets.values.mean(axis=0) * 252)

    def test_configurable_trading_days(self):
        rets = make_returns([[0.01, 0.0], [-0.01, 0.02], [0.0, 0.01]])
        mean = analytics.annual_mean(rets, trading_days=250)
        assert np.array_equal(mean, rets.values.mean(axis=0) * 250)
        assert mean == pytest.approx([0.0, 2.5], abs=1e-15)

    def test_insufficient_rows(self):
        rets = make_returns(np.empty((0, 2)))
        with pytest.raises(InsufficientDataError):
            analytics.annual_mean(rets)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mean_names_the_asset(self):
        # both returns are 2**1017: finite, and so is their (zero) variance
        rets = make_returns([[0.01, 2.0**1017], [0.02, 2.0**1017]], tickers=("A", "B"))
        with pytest.raises(NonFiniteError, match="annual mean return of B overflows"):
            analytics.annual_mean(rets)


class TestCovarianceCorrelation:
    def test_identical_columns(self):
        x = np.array([0.01, -0.02, 0.03, 0.0])
        rets = make_returns(np.column_stack([x, x]))
        cov = analytics.covariance(rets)
        corr = analytics.correlation(rets)
        assert corr.values[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert cov.values[0, 1] == pytest.approx(np.var(x, ddof=1), abs=1e-15)

    def test_anti_symmetric_columns(self):
        x = np.array([0.01, -0.02, 0.03, 0.0])
        corr = analytics.correlation(make_returns(np.column_stack([x, -x])))
        assert corr.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_column_degenerate_rule(self):
        x = np.array([0.01, -0.02, 0.03, 0.0])
        rets = make_returns(np.column_stack([x, np.zeros(4)]))
        corr = analytics.correlation(rets)
        cov = analytics.covariance(rets)
        assert corr.values[0, 1] == 0.0
        assert corr.values[1, 1] == 1.0
        assert cov.values[1, 1] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_corr_matrix_rejects_non_finite(self, bad):
        values = np.eye(3)
        values[0, 2] = values[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            analytics.CorrMatrix(("A", "B", "C"), values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cov_matrix_rejects_non_finite(self, bad):
        values = np.eye(3)
        values[0, 2] = values[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            analytics.CovMatrix(("A", "B", "C"), values)

    def test_cov_matrix_psd_check_scales_with_the_entries(self):
        # eigvalsh puts the zero eigenvalues of this rank-one matrix near -3e-8
        v = np.random.default_rng(3).normal(size=3)
        analytics.CovMatrix(("A", "B", "C"), np.outer(v, v) * 5e7)
        with pytest.raises(ValueError, match="positive semidefinite"):
            analytics.CovMatrix(("A", "B"), np.array([[1.0, 2.0], [2.0, 1.0]]) * 5e7)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_covariance_names_the_column(self):
        # squares of 1e300 overflow float64 although every return is finite
        values = np.array([[0.01, 1e300], [0.02, -1.0], [0.0, 1e300]])
        with pytest.raises(NonFiniteError, match="column 1 over 3 rows"):
            analytics.covariance_values(values)
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
        cov_std = analytics.covariance_values(standardized)
        corr = analytics.correlation_values(values)
        assert np.max(np.abs(cov_std - corr)) < 1e-10


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
        schedule = static_schedule(equal_weight(rets.tickers), rets.dates)
        curve = _curve(rets, schedule)
        assert curve.values[-1] == pytest.approx(0.030301, abs=1e-12)

    def test_zero_returns_flat(self):
        rets = make_returns(np.zeros((4, 2)))
        schedule = static_schedule(equal_weight(rets.tickers), rets.dates)
        assert np.all(_curve(rets, schedule).values == 0.0)

    def test_single_asset_passthrough(self, rng):
        values = rng.normal(0.001, 0.01, size=(10, 3))
        rets = make_returns(values)
        from portlab.mvp import Portfolio

        schedule = static_schedule(
            Portfolio(rets.tickers, np.array([0.0, 1.0, 0.0])), rets.dates
        )
        curve = _curve(rets, schedule)
        expect = np.cumprod(1 + values[:, 1]) - 1
        assert curve.values == pytest.approx(expect, abs=1e-14)

    def test_equal_weights_match_row_mean_compounding(self, rng):
        values = rng.normal(0.0, 0.02, size=(15, 5))
        rets = make_returns(values)
        schedule = static_schedule(equal_weight(rets.tickers), rets.dates)
        curve = _curve(rets, schedule)
        expect = np.cumprod(1 + values.mean(axis=1)) - 1
        assert np.max(np.abs(curve.values - expect)) < 1e-12

    def test_misaligned_schedule_errors(self):
        rets = make_returns(np.zeros((4, 2)))
        other_dates = weekdays(4, start=rets.dates[0].replace(year=2021))
        schedule = WeightSchedule(other_dates, np.full((4, 2), 0.5))
        with pytest.raises(AlignmentError):
            _curve(rets, schedule)

    def test_superset_schedule_errors(self):
        # the schedule must be dated exactly as the returns, not merely cover them
        rets = make_returns(np.full((3, 2), 0.01))
        schedule = WeightSchedule(weekdays(5), np.full((5, 2), 0.5))
        with pytest.raises(AlignmentError):
            _curve(rets, schedule)

    def test_daily_returns_are_weighted_row_sums(self, rng):
        values = rng.normal(0.0, 0.02, size=(12, 3))
        rets = make_returns(values)
        weights = rng.dirichlet(np.ones(3), size=12)
        daily, curve = analytics.schedule_returns(rets, WeightSchedule(rets.dates, weights))
        assert np.array_equal(daily, (values * weights).sum(axis=1))
        assert np.array_equal(curve.values, np.cumprod(1.0 + daily) - 1.0)
