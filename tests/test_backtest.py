"""Backtest dataclass invariants and the comparison CSV.

NaN must fail every invariant like any other bad value.
"""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from helpers import make_returns
from portlab.backtest import BacktestReport, compare_methods, run_backtest, write_comparison_csv
from portlab.errors import NonFiniteError
from portlab.mvp import equal_weight
from portlab.synthetic import weekday_dates


def _report(**overrides) -> BacktestReport:
    fields = dict(
        method="MVP",
        phase="test",
        dataset="d",
        annual_return=0.11,
        annual_risk=0.2,
        risk_free=0.01,
        sharpe=(0.11 - 0.01) / 0.2,
        dates=weekday_dates(date(2019, 1, 1), 2),
        curve=np.array([0.0, 0.01]),
    )
    fields.update(overrides)
    return BacktestReport(**fields)


def _scored(method: str, dataset: str, sharpe: float, phase: str = "test") -> BacktestReport:
    return _report(
        method=method,
        phase=phase,
        dataset=dataset,
        annual_return=0.01 + sharpe,
        annual_risk=1.0,
        sharpe=sharpe,
    )


def test_comparison_csv_leaves_a_missing_method_empty(tmp_path):
    reports = [
        _scored("RL", "b", -0.5),
        _scored("EQUAL", "b", 0.1),
        _scored("HRP", "b", 0.3),
        _scored("MVP", "b", 1e-05),
        _scored("MVP", "a", 2.0),
        _scored("HRP", "a", 0.75),
        _scored("EQUAL", "a", 0.1 + 0.2),
        _scored("RL", "a", 9.0, phase="train"),
    ]
    write_comparison_csv(compare_methods(reports), tmp_path / "comparison.csv")
    assert (tmp_path / "comparison.csv").read_bytes() == (
        b"dataset,MVP,HRP,EQUAL,RL\n"
        b"a,2.0,0.75,0.30000000000000004,\n"
        b"b,1e-05,0.3,0.1,-0.5\n"
    )


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
    ("curve", "message"),
    [
        ([0.0], "curve values must align with curve dates"),
        ([[0.0, 0.01]], "curve values must align with curve dates"),
        ([0.0, np.nan], "curve values must be finite"),
        ([np.inf, 0.0], "curve values must be finite"),
        ([0.0, 10**400], "curve values must be finite"),
        ([0.0, "0.5"], "curve values must be finite"),
        ([0.0, True], "curve values must be finite"),
    ],
    ids=["short", "two-axes", "nan", "inf", "huge-integer", "numeric-string", "bool"],
)
def test_report_curve_must_align_with_its_dates_and_be_finite(curve, message):
    with pytest.raises(ValueError, match=message):
        _report(curve=curve)


@pytest.mark.filterwarnings("error")
def test_overflowing_risk_raises_non_finite_error():
    # every daily return and the curve are finite, but squared deviations overflow
    returns = make_returns([[1e200], [-1.0], [1e200]])
    weights = equal_weight(returns.n_assets)
    with pytest.raises(NonFiniteError, match="annual return or risk of MVP"):
        run_backtest(weights, returns, 0.01, 252, method="MVP", phase="test", dataset="d")
