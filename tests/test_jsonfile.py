"""The JSON writer: the bytes of the ``json.dumps`` calls it replaced, and no NaN."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.text()
)
_trees = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_any_tree_gives_the_bytes_of_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(path, payload)
    assert path.read_bytes() == _reference(payload).encode("utf-8")


@pytest.mark.parametrize("bad", [math.nan, -math.inf, np.float64(math.inf)])
def test_non_finite_message_is_the_json_message(tmp_path, bad):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError) as want:
        json.dumps({"a": [bad]}, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(NonFiniteError) as got:
        write_json(path, {"a": [bad]})
    assert str(got.value) == f"{path}: {want.value}"


@pytest.mark.parametrize("payload", [{1: 2}, {"a": {1.5}}, [np.int64(3)], {"a": np.bool_(True)}])
def test_what_the_writer_does_not_take_is_a_type_error(tmp_path, payload):
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        write_json(path, payload)
    assert not path.exists()
