"""Backtest dataclass invariants: NaN must fail them like any other bad value."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_returns, weekdays
from portlab.analytics import CumulativeCurve
from portlab.backtest import BacktestReport, WeightSchedule, run_backtest, static_schedule
from portlab.errors import NonFiniteError
from portlab.mvp import equal_weight


def _report(**overrides) -> BacktestReport:
    fields = dict(
        method="MVP",
        phase="test",
        dataset="d",
        annual_return=0.11,
        annual_risk=0.2,
        risk_free=0.01,
        sharpe=(0.11 - 0.01) / 0.2,
        curve=CumulativeCurve(weekdays(2), np.array([0.0, 0.01])),
    )
    fields.update(overrides)
    return BacktestReport(**fields)


def test_consistent_report_accepted():
    assert _report().sharpe == pytest.approx(0.5)


@pytest.mark.parametrize("field", ["sharpe", "risk_free", "annual_return"])
def test_nan_breaks_sharpe_consistency(field):
    with pytest.raises(ValueError, match="Sharpe"):
        _report(**{field: float("nan")})


@pytest.mark.parametrize("risk", [0.0, -0.2, float("nan")])
def test_risk_must_be_positive(risk):
    with pytest.raises(ValueError, match="annual risk must be > 0"):
        _report(annual_risk=risk)


@pytest.mark.parametrize(
    "row", [[0.5, 0.6], [np.nan, 1.0], [1.5, -0.5]], ids=["off-simplex", "nan", "negative"]
)
def test_schedule_rejects_rows_off_the_simplex(row):
    with pytest.raises(ValueError, match="simplex"):
        WeightSchedule(weekdays(2), np.array([[0.5, 0.5], row]))


@pytest.mark.filterwarnings("error")
def test_overflowing_risk_raises_non_finite_error():
    # every daily return and the curve are finite, but squared deviations overflow
    returns = make_returns([[1e200], [-1.0], [1e200]])
    schedule = static_schedule(equal_weight(returns.tickers), returns.dates)
    with pytest.raises(NonFiniteError, match="annual return or risk of MVP"):
        run_backtest(schedule, returns, 0.01, method="MVP")
