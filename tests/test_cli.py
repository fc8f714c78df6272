"""CLI behaviour end to end.

Bad input (a malformed saved model or report, an out-of-range config
value, a file that is not UTF-8, prices whose returns or statistics
overflow) gives exit 1 and one ``error:`` line; a full pipeline run writes
the same bytes every time; the bundled fixture regenerates byte for byte.
"""

from __future__ import annotations

import json
import math
import shutil
from datetime import date

import numpy as np
import pytest

from helpers import weekdays
from portlab import backtest, cli, synthetic
from portlab.analytics import CumulativeCurve
from portlab.market_data import PriceTable, write_prices
from portlab.rl import Hyperparams, qnet_init, save_qnetwork

FIXTURE_ASSETS = 10


@pytest.fixture
def run_dir(tmp_path, fixture_csv):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data = {fixture_csv}\n"
        "train_end = 2019-05-03\n"
        "test_start = 2019-05-06\n"
        "rl.hidden_dims = 8\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    out.mkdir()
    return config, out


def _saved_model_lines(n_assets: int, out) -> list[str]:
    path = out / "rl_model.txt"
    save_qnetwork(qnet_init(n_assets, Hyperparams(hidden_dims=(8,))), path)
    return path.read_text(encoding="utf-8").splitlines()


def _rl_eval(config, out, capsys) -> tuple[int, list[str]]:
    code = cli.main(["rl-eval", "--config", str(config), "--out", str(out)])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "mangle",
    [lambda lines: lines[:-3], lambda lines: ["qnetwork 55 eight 21"] + lines[1:]],
    ids=["truncated", "garbage-header"],
)
def test_rl_eval_reports_malformed_model(run_dir, capsys, mangle):
    config, out = run_dir
    lines = mangle(_saved_model_lines(FIXTURE_ASSETS, out))
    (out / "rl_model.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = _rl_eval(config, out, capsys)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "rl_model.txt" in err[0]


def test_rl_eval_reports_model_for_other_asset_count(run_dir, capsys):
    config, out = run_dir
    _saved_model_lines(FIXTURE_ASSETS - 1, out)
    code, err = _rl_eval(config, out, capsys)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{FIXTURE_ASSETS} assets" in err[0]


def test_rl_eval_accepts_well_formed_model(run_dir, capsys):
    config, out = run_dir
    _saved_model_lines(FIXTURE_ASSETS, out)
    code, err = _rl_eval(config, out, capsys)
    assert (code, err) == (0, [])
    assert (out / "report_RL_test.json").exists()


def _saved_report(out):
    path = out / "report_MVP_test.json"
    curve = CumulativeCurve(weekdays(2), np.array([0.0, 0.01]))
    report = backtest.BacktestReport("MVP", "test", "d", 0.11, 0.2, 0.01, 0.5, curve)
    backtest.write_report(report, path)
    return path


def _edit_report(**fields):
    """Rewrite a saved report's JSON with ``fields`` set; a None value drops the field."""

    def edit(text: str) -> str:
        payload = json.loads(text)
        for name, value in fields.items():
            if value is None:
                del payload[name]
            else:
                payload[name] = value
        return json.dumps(payload)

    return edit


@pytest.mark.parametrize(
    ("mangle", "message"),
    [
        (lambda text: text[: len(text) // 2], "report_MVP_test.json: "),
        (_edit_report(risk=None), "missing field 'risk'"),
        (_edit_report(risk=0.0), "annual risk must be > 0"),
        (_edit_report(risk=math.nan), "annual risk must be > 0, got nan"),
        (_edit_report(dataset=["d"]), "method and dataset must be strings"),
    ],
    ids=["truncated", "missing-key", "zero-risk", "nan-risk", "list-dataset"],
)
def test_compare_reports_malformed_report(run_dir, capsys, mangle, message):
    config, out = run_dir
    path = _saved_report(out)
    path.write_text(mangle(path.read_text(encoding="utf-8")), encoding="utf-8")
    code = cli.main(["compare", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "report_MVP_test.json" in err[0]
    assert message in err[0]


@pytest.mark.parametrize(
    ("command", "name"),
    [
        ("mvp", "run.cfg"),
        ("mvp", "prices.csv"),
        ("rl-eval", "rl_model.txt"),
        ("compare", "report_MVP_test.json"),
    ],
)
def test_non_utf8_input_gives_one_line_error(tmp_path, fixture_csv, capsys, command, name):
    prices = tmp_path / "prices.csv"
    shutil.copyfile(fixture_csv, prices)
    config = tmp_path / "run.cfg"
    _write_config(config, prices, "rl.hidden_dims = 8\n")
    out = tmp_path / "out"
    out.mkdir()
    _saved_model_lines(FIXTURE_ASSETS, out)
    _saved_report(out)
    target = out / name if (out / name).exists() else tmp_path / name
    data = target.read_bytes()
    target.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert str(target) in err[0]


def _write_config(path, fixture_csv, extra: str = "") -> None:
    path.write_text(
        f"data = {fixture_csv}\n"
        "train_end = 2019-05-03\n"
        "test_start = 2019-05-06\n" + extra,
        encoding="utf-8",
    )


@pytest.mark.parametrize(
    ("line", "key"),
    [
        ("risk_free = nan", "risk_free"),
        ("mc_samples = 0", "mc_samples"),
        ("frontier_bins = 0", "frontier_bins"),
        ("trading_days = 0", "trading_days"),
    ],
)
def test_mvp_reports_out_of_range_config(tmp_path, fixture_csv, capsys, line, key):
    config = tmp_path / "run.cfg"
    _write_config(config, fixture_csv, line + "\n")
    code = cli.main(["mvp", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert key in err[0]
    assert not (tmp_path / "out").exists()


def _extreme_prices(path, low: float, high: float, columns: int) -> None:
    """700 weekdays of fixture-like prices; the first ``columns`` alternate low/high."""
    table = synthetic.drift_price_table(n_assets=4, n_days=700, start=date(2018, 1, 1))
    closes = table.closes.copy()
    closes[:, :columns] = np.where(np.arange(700) % 2 == 0, low, high)[:, None]
    write_prices(PriceTable(table.dates, table.tickers, closes), path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("low", "high", "columns", "command", "message"),
    [
        (1e-300, 1e300, 1, "mvp", "return of STK0 on 2018-01-02 overflows"),
        (1.0, 1e6, 2, "mvp", "portfolio cumulative return overflows on"),
        (1.0, 1e6, 2, "rl-eval", "portfolio cumulative return overflows on"),
    ],
    ids=["return-overflows", "curve-overflows", "rl-curve-overflows"],
)
def test_non_finite_returns_give_one_line_error(
    tmp_path, capsys, low, high, columns, command, message
):
    prices = tmp_path / "prices.csv"
    _extreme_prices(prices, low, high, columns)
    config = tmp_path / "run.cfg"
    _write_config(config, prices, "mc_samples = 100\nrl.hidden_dims = 8\n")
    out = tmp_path / "out"
    out.mkdir()
    save_qnetwork(qnet_init(4, Hyperparams(hidden_dims=(8,))), out / "rl_model.txt")
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("command", "message"),
    [
        ("mvp", "daily volatility of STK0 overflows float64"),
        ("hrp", "sample covariance of STK0 over 349 rows overflows float64"),
        ("rl-train", "in the window 2018-01-02 to 2018-03-26: sample covariance of STK0"),
    ],
    ids=["mvp", "hrp", "rl-train"],
)
def test_overflowing_statistics_give_one_line_error(tmp_path, capsys, command, message):
    # returns of 1e300 and -1 are finite, but their squares overflow float64
    prices = tmp_path / "prices.csv"
    _extreme_prices(prices, 1e-150, 1e150, 2)
    config = tmp_path / "run.cfg"
    _write_config(config, prices, "mc_samples = 100\nrl.hidden_dims = 8\n")
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0]


def _run_pipeline(config, out) -> dict[str, bytes]:
    for command in cli._COMMANDS:
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_pipeline_outputs_are_byte_identical_across_runs(tmp_path, fixture_csv, capsys):
    config = tmp_path / "run.cfg"
    _write_config(config, fixture_csv, "mc_samples = 2500\nrl.episodes = 2\nseed = 7\n")
    first = _run_pipeline(config, tmp_path / "a")
    second = _run_pipeline(config, tmp_path / "b")
    assert capsys.readouterr().err == ""
    assert len(first) == 21
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


def test_fixture_regenerates_byte_for_byte(tmp_path, fixture_csv, capsys):
    path = tmp_path / "prices.csv"
    assert synthetic.main([str(path)]) == 0
    assert path.read_bytes() == fixture_csv.read_bytes()
