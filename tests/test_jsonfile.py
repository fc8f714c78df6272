"""The JSON writer: the bytes of the ``json.dumps`` calls it replaced, and no NaN."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from helpers import random_returns
from portlab import backtest
from portlab.errors import NonFiniteError
from portlab.jsonfile import write_json
from portlab.mvp import equal_weight


def _reference(payload) -> str:
    """The form every JSON output was written with before ``write_json``."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_bytes_match_reference(tmp_path):
    payload = {
        "weights": [0.1 + 0.2, 5e-324, 1e16, -0.0, 1e-05, 1.0],
        "tickers": ["Z", "A"],
        "nested": [{"b": 1, "a": [2, [3.5]]}, []],
        "method": "HRP",
    }
    path = tmp_path / "out.json"
    write_json(path, payload)
    assert path.read_text(encoding="utf-8") == _reference(payload)


def test_report_bytes_match_reference(tmp_path):
    returns = random_returns(np.random.default_rng(3), 30, 3)
    report = backtest.run_backtest(
        equal_weight(returns.n_assets),
        returns,
        0.01,
        252,
        method="EQUAL",
        phase="test",
        dataset="d",
    )
    path = tmp_path / "report.json"
    backtest.write_report(report, path)
    payload = {
        "method": "EQUAL",
        "phase": "test",
        "dataset": "d",
        "annual_return": report.annual_return,
        "risk": report.annual_risk,
        "risk_free": 0.01,
        "sharpe": report.sharpe,
        "curve": [[d.isoformat(), float(v)] for d, v in zip(returns.dates, report.curve)],
    }
    assert path.read_text(encoding="utf-8") == _reference(payload)
    assert np.array_equal(backtest.read_report(path).curve, report.curve)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_raises_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "out.json"
    with pytest.raises(NonFiniteError, match="out.json"):
        write_json(path, {"curve": [["2020-01-01", 0.0], ["2020-01-02", bad]]})
    assert not path.exists()
