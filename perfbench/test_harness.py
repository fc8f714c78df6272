"""Self-tests of the benchmark harness, on tiny inputs.

Run from the checkout root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import CheckError, OutputChecker, check_file, dir_digest, strict_json  # noqa: E402
from pipeline import Proc, collect, command_problems, spawn  # noqa: E402
from run import E2E_UNITS, judge_digest, per_layer_units  # noqa: E402
from tracer import Span, Tracer, installed, run_in_process, self_times, wrap_points  # noqa: E402
from workloads import WORKLOADS, override_config  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("d", 2.0, 3.0, 1),
        Span("c", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_spans_and_self_time_with_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    with tracer.span("outer"):  # opens at 0
        inner()  # 1..2
        inner()  # 3..4
    # closes at 5
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, -1),
        ("inner", 1.0, 2.0, 0),
        ("inner", 3.0, 4.0, 0),
    ]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def _python(tmp_path: Path, code: str) -> Proc:
    return spawn([sys.executable, "-c", code], {}, tmp_path, tmp_path / "err")


def test_traceback_counts_as_failure(tmp_path):
    proc = _python(tmp_path, "raise RuntimeError('boom')")
    problems = command_problems(proc)
    assert proc.exit_code == 1
    assert problems and problems[0].startswith("traceback: RuntimeError: boom")
    # a traceback fails the command even when the exit code is 0
    assert command_problems(Proc(0.1, 0, 0, "Traceback (most recent call last):\n  x\nE: y\n"))


def test_error_exit_counts_as_failure(tmp_path):
    proc = _python(tmp_path, "import sys; print('error: no model', file=sys.stderr); sys.exit(1)")
    assert command_problems(proc) == ["exit 1: error: no model"]
    assert proc.peak_rss_bytes > 0
    assert command_problems(_python(tmp_path, "pass")) == []


def test_flipped_byte_is_a_digest_mismatch(tmp_path):
    (tmp_path / "a.json").write_text('{"x": 1}\n')
    (tmp_path / "b.csv").write_text("w\n1.0\n")
    digest, size = dir_digest(tmp_path)
    assert size == 15
    data = bytearray((tmp_path / "b.csv").read_bytes())
    data[2] ^= 0x01
    (tmp_path / "b.csv").write_bytes(bytes(data))
    flipped, _ = dir_digest(tmp_path)
    assert flipped != digest
    record = {"digest": flipped, "problems": []}
    judge_digest(record, digest)
    assert not record["correct"] and "recorded" in record["problems"][0]


def test_wrappers_restored_after_tracing():
    points = wrap_points()
    originals = [vars(owner)[attr] for owner, attr, *_ in points]
    with pytest.raises(RuntimeError):
        with installed(Tracer(), points):
            assert all(vars(o)[a] is not f for (o, a, *_), f in zip(points, originals))
            raise RuntimeError("escape while wrapped")
    assert all(vars(o)[a] is f for (o, a, *_), f in zip(points, originals))


def test_output_checks(tmp_path):
    def check(name: str, text: str) -> None:
        (tmp_path / name).write_text(text)
        check_file(tmp_path / name)

    with pytest.raises(CheckError):
        strict_json('{"sharpe": NaN}')
    weights = {"tickers": ["A", "B"], "weights": [0.5, 0.6]}
    with pytest.raises(CheckError):
        check("mvp_weights.json", json.dumps(weights))
    check("mvp_weights.json", json.dumps({**weights, "weights": [0.4, 0.6]}))
    # numpy scalar reprs are read for their value and noted, not failed
    (tmp_path / "hrp_weight_bars.csv").write_text("ticker,weight\nA,np.float64(1.0)\n")
    assert "np.float64(1.0)" in check_file(tmp_path / "hrp_weight_bars.csv")
    with pytest.raises(CheckError):
        check("hrp_weight_bars.csv", "ticker,weight\nA,np.float64(0.5)\nB,0.4\n")
    with pytest.raises(ValueError):
        check("hrp_weight_bars.csv", "ticker,weight\nA,np.float32(1.0)\n")
    check("rl_schedule.csv", "date,A,B\n2020-01-01,0.25,0.75\n")
    with pytest.raises(CheckError):
        check("frontier.csv", "volatility,return,sharpe,w1,w2\n0.1,0.1,1.0,0.5,0.4\n")


def _tiny_inputs(tmp_path: Path) -> Path:
    from portlab import synthetic
    from portlab.market_data import write_prices

    table = synthetic.drift_price_table(3, 120, seed=1)
    write_prices(table, tmp_path / "prices.csv")
    base = (HERE.parent / "configs" / "demo.cfg").read_text()
    keys = {
        "data": str(tmp_path / "prices.csv"),
        "train_end": table.dates[79].isoformat(),
        "test_start": table.dates[80].isoformat(),
        "mc_samples": "200",
        "rl.window": "10",
        "rl.episodes": "2",
        "rl.batch_size": "8",
    }
    config = tmp_path / "tiny.cfg"
    config.write_text(override_config(base, keys))
    return config


def test_traced_outputs_match_untraced(tmp_path):
    config = _tiny_inputs(tmp_path)
    checker = OutputChecker()
    plain = collect(*run_in_process(config, tmp_path / "plain"), tmp_path / "plain", checker)
    tracer = Tracer()
    out = tmp_path / "traced"
    traced = collect(*run_in_process(config, out, tracer), out, checker)
    assert plain.digest == traced.digest
    assert [c.exit_problems for c in traced.commands] == [[]] * 5
    metrics = tracer.layer_metrics()
    assert metrics["rl.network.qnet_train_step.calls"] > 0
    assert metrics["rl.network.qnet_forward.calls"] == metrics["rl.env.env_step.calls"]
    assert 0 < metrics["rl.env.feature_windows.distinct_ratio"] < 1


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    for w in spec["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
