"""CLI behaviour end to end.

Bad input (a malformed saved model or report, an out-of-range config
value, a file that is not UTF-8, prices whose returns or statistics
overflow) gives exit 1 and one ``error:`` line; a full pipeline run writes
the same bytes every time; the bundled fixture regenerates byte for byte.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import weekdays
from portlab import backtest, cli, synthetic
from portlab.analytics import CumulativeCurve
from portlab.market_data import PriceTable, write_prices
from portlab.rl.network import qnet_init, save_qnetwork
from portlab.rl.params import Hyperparams

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
        (
            _edit_report(curve=[["2019-01-01", 0.0], ["2019-01-02", None]]),
            "curve values must be finite",
        ),
    ],
    ids=["truncated", "missing-key", "zero-risk", "nan-risk", "list-dataset", "null-curve-cell"],
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
        ("mvp", "sample covariance of STK0 over 349 rows overflows float64"),
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


@pytest.mark.filterwarnings("error")
def test_overflowing_annual_mean_gives_one_line_error(tmp_path, capsys):
    # closes 2**-1074, 2**-57, 2**960: both returns are exactly 2**1017, so the
    # covariance is 0, but their mean times 252 overflows float64
    dates = weekdays(6, date(2019, 5, 1))
    closes = np.array([[5e-324, 6.938893903907228e-18, 9.7453140114e288, 1.0, 1.0, 1.0],
                       [1.0, 1.1, 1.2, 1.3, 1.2, 1.1]]).T
    prices = tmp_path / "prices.csv"
    write_prices(PriceTable(dates, ("HUGE", "CALM"), closes), prices)
    config = tmp_path / "run.cfg"
    _write_config(config, prices, "mc_samples = 100\n")
    code = cli.main(["mvp", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "annual mean return of HUGE overflows float64" in err[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["mvp", "hrp"])
def test_overflowing_sharpe_gives_one_line_error(tmp_path, fixture_csv, capsys, command):
    # (return - 1e308) / volatility overflows when the volatility is below 1
    config = tmp_path / "run.cfg"
    _write_config(config, fixture_csv, "risk_free = 1e308\nmc_samples = 100\n")
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "Sharpe ratio" in err[0] and "overflows float64" in err[0]


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


@st.composite
def _small_price_tables(draw) -> tuple[PriceTable, int]:
    """A price table of 2-4 columns and its number of train rows.

    Each column is a random walk, a constant, a copy of column 0, or an
    alternation of two extremes, at scales from 1e-300 to 1e300; some cells
    after the first row are missing, for forward-fill. The train and test
    splits each have 3 to 12 rows, around the 9 (window 4 + period 2, plus
    the dropped first row and one step) that the agent needs.
    """
    n_train = draw(st.integers(3, 12))
    n_rows = n_train + draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["walk", "constant", "duplicate", "alternating"]))
        scale = 10.0 ** draw(st.integers(-300, 300))
        if kind == "walk":
            column = scale * np.exp(np.cumsum(rng.normal(0.0, 0.02, n_rows)))
        elif kind == "constant":
            column = np.full(n_rows, scale)
        elif kind == "duplicate" and columns:
            column = columns[0]
        else:
            high = 10.0 ** draw(st.integers(0, 300))
            column = np.where(np.arange(n_rows) % 2 == 0, scale, high)
        columns.append(column)
    closes = np.column_stack(columns)
    closes[1:][rng.uniform(size=(n_rows - 1, len(columns))) < 0.1] = np.nan
    tickers = tuple(f"T{i}" for i in range(len(columns)))
    return PriceTable(weekdays(n_rows), tickers, closes), n_train


def _reject_constant(name: str):
    raise ValueError(f"JSON output holds {name}")


@settings(max_examples=20, deadline=None)
@given(_small_price_tables(), st.sampled_from([0.0, 0.01, 1e308]))
def test_every_command_exits_cleanly_on_small_tables(case, risk_free):
    table, n_train = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        tmp = Path(tmp)
        write_prices(table, tmp / "prices.csv")
        (tmp / "run.cfg").write_text(
            f"data = {tmp / 'prices.csv'}\n"
            f"train_end = {table.dates[n_train - 1]}\n"
            f"test_start = {table.dates[n_train]}\n"
            f"risk_free = {risk_free!r}\n"
            "mc_samples = 50\nfrontier_bins = 5\n"
            "rl.window = 4\nrl.rebalance_period = 2\nrl.episodes = 1\n"
            "rl.batch_size = 2\nrl.hidden_dims = 4\n",
            encoding="utf-8",
        )
        for command in cli._COMMANDS:
            err = io.StringIO()
            with redirect_stderr(err):
                code = cli.main([command, "--config", str(tmp / "run.cfg"), "--out", str(tmp)])
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == [], (command, lines)
            else:
                assert code == 1, (command, code)
                assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
        for path in tmp.glob("*.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
