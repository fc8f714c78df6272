"""CLI behaviour end to end.

Bad input (a malformed saved model or report, a report of another phase,
two test reports of one method, no test report, an out-of-range config
value, an allocation too large for the address space, a file that is
not UTF-8, an empty or short price file, a cell beyond the csv module's
field limit, an empty or repeated ticker name, an empty output directory,
prices whose returns or statistics overflow) gives exit 1 and one
``error:`` line; ``import portlab.cli`` and ``compare`` load no numpy,
``mvp`` and ``hrp`` load no module of the agent, and ``hrp`` loads
neither ``portlab.mvp`` nor ``portlab.floatcsv``; a full
pipeline run writes the same bytes every time; the configured ``trading_days`` reaches the
agent's reward; the bundled fixture regenerates byte for byte.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import read_training_log
from portlab import backtest, cli, synthetic
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
    net = qnet_init(n_assets, Hyperparams(hidden_dims=(8,)), np.random.default_rng(0))
    save_qnetwork(net, path)
    return path.read_text(encoding="utf-8").splitlines()


def _rl_eval(config, out, capsys) -> tuple[int, list[str]]:
    code = cli.main(["rl-eval", "--config", str(config), "--out", str(out)])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda lines: lines[:-3],
        lambda lines: ["qnetwork 55 eight 21"] + lines[1:],
        # int() and float() read these as 55, 3.0 and 0.15
        lambda lines: ["qnetwork \u0665\u0665 8 21"] + lines[1:],
        lambda lines: lines[:5] + ["\u0663"] + lines[6:],
        lambda lines: lines[:5] + ["0.1_5"] + lines[6:],
    ],
    ids=[
        "truncated",
        "garbage-header",
        "arabic-indic-dims",
        "arabic-indic-parameter",
        "underscore-parameter",
    ],
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
    dates = synthetic.weekday_dates(date(2019, 1, 1), 2)
    report = backtest.BacktestReport("MVP", "test", "d", 0.11, 0.2, 0.01, 0.5, dates, [0.0, 0.01])
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
        # json.loads reads the NaN and Infinity that json.dumps writes
        (
            _edit_report(curve=[["2019-01-01", 0.0], ["2019-01-02", math.nan]]),
            "curve values must be finite",
        ),
        (
            _edit_report(curve=[["2019-01-01", math.inf], ["2019-01-02", 0.0]]),
            "curve values must be finite",
        ),
        # json.loads reads an integer of any size; this one is beyond the float range
        (_edit_report(risk=10**400), "annual_risk must be a finite number"),
        (
            _edit_report(curve=[["2019-01-01", 0.0], ["2019-01-02", 10**400]]),
            "curve values must be finite",
        ),
        # a string is no curve value, even one that float() would parse
        (
            _edit_report(curve=[["2019-01-01", 0.0], ["2019-01-02", "0.5"]]),
            "curve values must be finite",
        ),
        # nor is a string or a bool a scalar: each report below is consistent
        # once read through float()
        (_edit_report(risk="0.2"), "annual_risk must be a finite number"),
        (
            _edit_report(annual_return="0.11", risk="0.2", sharpe="0.5"),
            "annual_return must be a finite number",
        ),
        (_edit_report(risk=True, sharpe=0.1), "annual_risk must be a finite number"),
        (_edit_report(phase="dev"), "phase must be train or test, got 'dev'"),
        # date.fromisoformat reads this basic form on Python 3.11, not on 3.10
        (
            _edit_report(curve=[["2019-01-01", 0.0], ["20190102", 0.0]]),
            "not a YYYY-MM-DD date: '20190102'",
        ),
    ],
    ids=[
        "truncated",
        "missing-key",
        "zero-risk",
        "nan-risk",
        "list-dataset",
        "null-curve-cell",
        "nan-curve-cell",
        "infinity-curve-cell",
        "huge-integer-risk",
        "huge-integer-curve-cell",
        "numeric-string-curve-cell",
        "numeric-string-risk",
        "numeric-string-scalars",
        "bool-risk",
        "dev-phase",
        "basic-form-curve-date",
    ],
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
    ("names", "phase", "message"),
    [
        (
            ["report_MVP_test.json", "report_MVP_test_copy.json"],
            "test",
            "duplicate test report for dataset 'd' method 'MVP'",
        ),
        (["report_MVP_train.json"], "train", "no test-phase reports among the inputs"),
    ],
    ids=["two-test-reports-of-one-method", "train-reports-only"],
)
def test_compare_needs_one_test_report_per_method(run_dir, capsys, names, phase, message):
    config, out = run_dir
    path = _saved_report(out)
    text = _edit_report(phase=phase)(path.read_text(encoding="utf-8"))
    path.unlink()
    for name in names:
        (out / name).write_text(text, encoding="utf-8")
    code = cli.main(["compare", "--config", str(config), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


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


def _with_cell(line: int, column: int, cell: str):
    """An edit of the fixture's lines that sets cell ``column`` of line ``line`` (from 1)."""

    def edit(lines: list[str]) -> list[str]:
        cells = lines[line - 1].split(",")
        cells[column] = cell
        return lines[: line - 1] + [",".join(cells)] + lines[line:]

    return edit


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        # 200,000 characters: beyond the csv module's field limit of 131,072
        (_with_cell(1, 2, "9" * 200_000), "line 1: field larger than field limit (131072)"),
        (_with_cell(4, 3, "9" * 200_000), "line 4: field larger than field limit (131072)"),
        (lambda lines: [], "empty file"),
        (lambda lines: lines[:3], "need at least 3 data rows, got 2"),
        # the empty line 3 and the bad cell on line 5 share one parse block,
        # which the row walk then reads, skipping the empty line
        (
            lambda lines: _with_cell(5, 2, "1.0x")(lines[:2] + [""] + lines[2:]),
            "row 5: non-numeric price '1.0x' for STK1",
        ),
        # date.fromisoformat reads these two on Python 3.11 (as 2018-01-01 and
        # 2018-01-02, the fixture's own dates), not on 3.10
        (_with_cell(2, 0, "20180101"), "row 2: malformed date '20180101'"),
        (_with_cell(3, 0, "2018-W01-2"), "row 3: malformed date '2018-W01-2'"),
    ],
    ids=[
        "long-ticker",
        "long-price",
        "empty",
        "two-rows",
        "empty-line-before-a-bad-cell",
        "basic-form-date",
        "week-form-date",
    ],
)
def test_bad_price_file_gives_one_line_error(tmp_path, fixture_csv, capsys, edit, message):
    prices = tmp_path / "prices.csv"
    lines = edit(fixture_csv.read_text(encoding="utf-8").splitlines())
    prices.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    config = tmp_path / "run.cfg"
    _write_config(config, prices)
    code = cli.main(["hrp", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {prices}: {message}"]


def _hrp_with_extra_column(tmp_path, fixture_csv, capsys, ticker: str) -> tuple[Path, str]:
    """Run ``hrp`` on the fixture plus a priced column headed ``ticker``; its one error line."""
    lines = fixture_csv.read_text(encoding="utf-8").splitlines()
    prices = tmp_path / "prices.csv"
    prices.write_text(
        "\n".join([f"{lines[0]},{ticker}"] + [line + ",50.0" for line in lines[1:]]) + "\n",
        encoding="utf-8",
    )
    config = tmp_path / "run.cfg"
    _write_config(config, prices)
    out = tmp_path / "out"
    code = cli.main(["hrp", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()
    return prices, err[0]


def test_empty_ticker_name_gives_one_line_error(tmp_path, fixture_csv, capsys):
    # a trailing header comma names a priced column ""
    prices, err = _hrp_with_extra_column(tmp_path, fixture_csv, capsys, "")
    assert f"{prices}: column {FIXTURE_ASSETS + 2} has an empty ticker name" in err


def test_repeated_ticker_name_gives_one_line_error(tmp_path, fixture_csv, capsys):
    prices, err = _hrp_with_extra_column(tmp_path, fixture_csv, capsys, "STK3")
    assert f"{prices}: column {FIXTURE_ASSETS + 2} repeats ticker 'STK3'" in err


def _write_config(path, fixture_csv, extra: str = "") -> None:
    path.write_text(
        f"data = {fixture_csv}\n"
        "train_end = 2019-05-03\n"
        "test_start = 2019-05-06\n" + extra,
        encoding="utf-8",
    )


# date.fromisoformat reads both on Python 3.11 (as 2019-05-03), not on 3.10
@pytest.mark.parametrize("value", ["20190503", "2019-W18-5"], ids=["basic-form", "week-form"])
def test_config_date_in_another_iso_form_gives_one_line_error(
    tmp_path, fixture_csv, capsys, value
):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data = {fixture_csv}\ntrain_end = {value}\ntest_start = 2019-05-06\n",
        encoding="utf-8",
    )
    code = cli.main(["hrp", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {config}:2: bad value '{value}' for key 'train_end'"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("line", "key"),
    [
        ("risk_free = nan", "risk_free"),
        ("mc_samples = 0", "mc_samples"),
        ("frontier_bins = 0", "frontier_bins"),
        ("frontier_bins = 9223372036854775807", "frontier_bins"),
        ("frontier_bins = 10000000000000000000", "frontier_bins"),
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


@pytest.mark.parametrize(
    ("command", "lines", "seed_env", "message"),
    [
        ("mvp", "seed = -1\n", None, ": seed must be >= 0, got -1"),
        ("rl-train", "rl.seed = -1\n", None, ": rl.seed must be >= 0, got -1"),
        ("mvp", "", "-1", "PLAB_SEED: seed must be >= 0, got -1"),
        ("mvp", "", "x1", "PLAB_SEED must be an integer, got 'x1'"),
        # int() reads these as 7, and the config values below as 200, (8, 3) and 0.001
        ("mvp", "", "\u0667", "PLAB_SEED must be an integer, got '\u0667'"),
        ("mvp", "", " +7 ", "PLAB_SEED must be an integer, got ' +7 '"),
        ("mvp", "mc_samples = \u0662\u0660\u0660\n", None, "for key 'mc_samples'"),
        ("mvp", "mc_samples = 2_00\n", None, "bad value '2_00' for key 'mc_samples'"),
        ("rl-train", "rl.hidden_dims = 8, \u0663\n", None, "for key 'rl.hidden_dims'"),
        ("rl-train", "rl.learning_rate = 0.00_1\n", None, "for key 'rl.learning_rate'"),
        ("rl-train", "rl.learning_rate = nan\n", None, "rl.learning_rate must be finite"),
        ("rl-train", "rl.learning_rate = inf\n", None, "rl.learning_rate must be finite"),
        (
            "rl-train",
            "rl.batch_size = 64\nrl.replay_capacity = 40\n",
            None,
            "rl.batch_size 64 exceeds replay_capacity 40",
        ),
        # 1.42 PiB of replay slots: above the 128 TiB user address space of
        # x86-64 and arm64 Linux, so the allocation fails without touching memory
        ("rl-train", "rl.replay_capacity = 100000000000000\n", None, "Unable to allocate"),
        # a 92.4 PiB frontier cloud, likewise; it is allocated before the
        # sampler spawns a child seed for each of its 10**12 chunks
        ("mvp", "mc_samples = 1000000000000000\n", None, "Unable to allocate"),
        ("rl-train", "rl.window = 1\n", None, ": rl.window must be >= 2"),
        ("rl-train", "rl.episodes = -1\n", None, ": rl.episodes must be >= 0"),
        ("rl-train", "rl.batch_size = 0\n", None, ": rl.batch_size must be >= 1"),
        ("rl-train", "rl.rebalance_period = 0\n", None, ": rl.rebalance_period must be >= 1"),
        ("rl-train", "rl.discount = 1.5\n", None, ": rl.discount must be in [0, 1]"),
        ("rl-train", "rl.eps_start = 2\n", None, ": rl.eps_start must be in [0, 1]"),
        ("rl-train", "rl.eps_min = -0.1\n", None, ": rl.eps_min must be in [0, 1]"),
        ("rl-train", "rl.eps_decay = nan\n", None, ": rl.eps_decay must be in [0, 1]"),
        ("rl-train", "rl.step_delta = 1\n", None, ": rl.step_delta must be in (0, 1)"),
        ("rl-train", "rl.hidden_dims = 8, 0\n", None, ": rl.hidden_dims widths must be >= 1"),
        ("rl-train", "rl.replay_capacity = 0\n", None, ": rl.replay_capacity must be >= 1"),
        # open() refuses a path holding a NUL with a ValueError
        ("hrp", "out_dir = runs\0x\n", None, ":4: bad value 'runs\\x00x' for key 'out_dir'"),
    ],
    ids=[
        "negative-seed",
        "negative-rl-seed",
        "negative-PLAB_SEED",
        "non-integer-PLAB_SEED",
        "arabic-indic-PLAB_SEED",
        "padded-PLAB_SEED",
        "arabic-indic-mc-samples",
        "underscore-mc-samples",
        "arabic-indic-hidden-dims",
        "underscore-learning-rate",
        "nan-learning-rate",
        "inf-learning-rate",
        "batch-above-capacity",
        "oversized-replay-capacity",
        "oversized-mc-samples",
        "one-row-window",
        "negative-episodes",
        "zero-batch-size",
        "zero-rebalance-period",
        "discount-above-one",
        "eps-start-above-one",
        "negative-eps-min",
        "nan-eps-decay",
        "step-delta-of-one",
        "zero-hidden-width",
        "zero-replay-capacity",
        "nul-in-a-path",
    ],
)
def test_bad_config_value_gives_one_line_error(
    tmp_path, fixture_csv, capsys, monkeypatch, command, lines, seed_env, message
):
    if seed_env is not None:
        monkeypatch.setenv("PLAB_SEED", seed_env)
    config = tmp_path / "run.cfg"
    _write_config(config, fixture_csv, lines)
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0]


@pytest.mark.parametrize(
    ("env", "flag", "expected"),
    [(False, False, "config"), (True, False, "env"), (False, True, "flag"), (True, True, "flag")],
    ids=["config", "plab-out", "out-flag", "out-flag-over-plab-out"],
)
def test_output_directory_is_out_flag_then_plab_out_then_config(
    tmp_path, fixture_csv, monkeypatch, env, flag, expected
):
    config = tmp_path / "run.cfg"
    _write_config(config, fixture_csv, f"out_dir = {tmp_path / 'config'}\n")
    if env:
        monkeypatch.setenv("PLAB_OUT", str(tmp_path / "env"))
    else:
        monkeypatch.delenv("PLAB_OUT", raising=False)
    argv = ["hrp", "--config", str(config)] + (["--out", str(tmp_path / "flag")] if flag else [])
    assert cli.main(argv) == 0
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == [expected]
    assert (tmp_path / expected / "hrp_weights.json").exists()


@pytest.mark.parametrize("flag", [False, True], ids=["plab-out", "out-flag"])
def test_empty_output_directory_gives_one_line_error(
    tmp_path, fixture_csv, capsys, monkeypatch, flag
):
    # Path("") is Path("."), so an empty value would write into the working directory
    config = tmp_path / "run.cfg"
    _write_config(config, fixture_csv)
    monkeypatch.chdir(tmp_path)
    if flag:
        monkeypatch.delenv("PLAB_OUT", raising=False)
    else:
        monkeypatch.setenv("PLAB_OUT", "")
    argv = ["hrp", "--config", str(config)] + (["--out", ""] if flag else [])
    code = cli.main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert f"{'--out' if flag else 'PLAB_OUT'} must name an output directory, got ''" in err[0]
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


_MODULES_AFTER_EACH_STEP = """
import json, sys
from portlab import cli
config, out, *commands = sys.argv[1:]
steps = [("import", 0, sorted(sys.modules))]
for command in commands:
    code = cli.main([command, "--config", config, "--out", out])
    steps.append((command, code, sorted(sys.modules)))
print(json.dumps(steps))
"""


def _modules_after_each_step(config, out, *commands) -> dict[str, tuple[int, list[str]]]:
    """Import the CLI, then run ``commands``, in one fresh interpreter.

    Maps ``"import"`` and each command to its exit code and the module
    names loaded so far.
    """
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_EACH_STEP, str(config), str(out), *commands],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stderr == ""
    return {step: (code, modules) for step, code, modules in json.loads(proc.stdout)}


def _under(package: str, modules: list[str]) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_import_and_compare_load_no_numpy(tmp_path, fixture_csv):
    config = tmp_path / "run.cfg"
    _write_config(config, fixture_csv, "mc_samples = 100\n")
    out = tmp_path / "out"
    for command in ("mvp", "hrp"):
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    steps = _modules_after_each_step(config, out, "compare")
    assert _under("numpy", steps["import"][1]) == []
    code, modules = steps["compare"]
    assert code == 0
    assert "portlab.backtest" in modules
    assert _under("numpy", modules) == []
    assert (out / "comparison.csv").read_text(encoding="utf-8").startswith(
        "dataset,MVP,HRP,EQUAL,RL\n"
    )


def test_mvp_and_hrp_load_no_module_of_the_agent(tmp_path, fixture_csv):
    config = tmp_path / "run.cfg"
    _write_config(config, fixture_csv, "mc_samples = 100\n")
    steps = _modules_after_each_step(config, tmp_path / "out", "hrp", "mvp")
    for command in ("hrp", "mvp"):
        code, modules = steps[command]
        assert code == 0
        assert "numpy" in modules
        # the config parses the rl.* keys into portlab.rl.params.Hyperparams
        assert _under("portlab.rl", modules) == ["portlab.rl", "portlab.rl.params"]
    # hrp needs neither the frontier sampler nor the CSV writer
    assert not {"portlab.mvp", "portlab.floatcsv"} & set(steps["hrp"][1])


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize(
    ("preset", "seen"),
    [
        ({}, {"OPENBLAS_NUM_THREADS": "1"}),
        ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
        ({"GOTO_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}),
        ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
    ],
    ids=["unset", "openblas-preset", "goto-preset", "omp-preset"],
)
def test_cli_caps_blas_threads_unless_a_count_is_set(preset, seen):
    # OpenBLAS reads these variables when numpy loads it, so the CLI module
    # must set its cap on import, before numpy, and leave a user's own alone
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    env.update(preset, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = (
        "import json, os, sys; import portlab.cli, numpy; "
        "print(json.dumps({k: os.environ[k] for k in sys.argv[1:] if k in os.environ}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *_BLAS_THREAD_VARIABLES],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == seen


def test_rl_train_refuses_to_save_a_model_that_overflowed(tmp_path, capsys):
    # at this learning rate the last update overflows the parameters, after
    # the final loss check has passed
    prices = tmp_path / "prices.csv"
    write_prices(synthetic.drift_price_table(n_assets=3, n_days=24), prices)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data = {prices}\ntrain_end = 2018-01-15\ntest_start = 2018-01-16\n"
        "rl.window = 4\nrl.rebalance_period = 2\nrl.episodes = 1\n"
        "rl.batch_size = 3\nrl.replay_capacity = 4\nrl.learning_rate = 1e308\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = cli.main(["rl-train", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "non-finite network parameters" in err[0]
    assert not (out / "rl_model.txt").exists()


def test_rl_train_reward_is_annualized_by_the_configured_trading_days(tmp_path, fixture_csv):
    models, logs = {}, {}
    for days in (252, 365):
        config = tmp_path / f"run{days}.cfg"
        _write_config(config, fixture_csv, f"trading_days = {days}\nrl.episodes = 1\n")
        out = tmp_path / str(days)
        assert cli.main(["rl-train", "--config", str(config), "--out", str(out)]) == 0
        models[days] = (out / "rl_model.txt").read_bytes()
        logs[days] = read_training_log(out / "rl_training_log.csv")
    assert models[365] != models[252]
    # episode 0 explores with eps_start = 1.0, so both runs take the same
    # actions and each reward scales by sqrt(T): T / sqrt(T)
    ratio = logs[365][0, 0] / logs[252][0, 0]  # episode 0's cumulative reward
    assert ratio == pytest.approx(math.sqrt(365 / 252), rel=1e-12, abs=0)


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
    net = qnet_init(4, Hyperparams(hidden_dims=(8,)), np.random.default_rng(0))
    save_qnetwork(net, out / "rl_model.txt")
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
    dates = synthetic.weekday_dates(date(2019, 5, 1), 6)
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
    return PriceTable(synthetic.weekday_dates(date(2019, 1, 1), n_rows), tickers, closes), n_train


def _reject_constant(name: str):
    raise ValueError(f"JSON output holds {name}")


def _assert_every_command_exits_cleanly(table: PriceTable, n_train: int, extra: str) -> None:
    """Run all five commands; each must exit 0 silently or 1 with one ``error:`` line.

    The config is small (50 samples, one episode of a 4-row window) plus
    the lines ``extra``; every JSON output must hold no NaN or infinity.
    """
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        tmp = Path(tmp)
        write_prices(table, tmp / "prices.csv")
        (tmp / "run.cfg").write_text(
            f"data = {tmp / 'prices.csv'}\n"
            f"train_end = {table.dates[n_train - 1]}\n"
            f"test_start = {table.dates[n_train]}\n"
            "mc_samples = 50\nfrontier_bins = 5\n"
            "rl.window = 4\nrl.rebalance_period = 2\nrl.episodes = 1\n"
            "rl.hidden_dims = 4\n" + extra,
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


@settings(max_examples=20, deadline=None)
@given(_small_price_tables(), st.sampled_from([0.0, 0.01, 1e308]))
def test_every_command_exits_cleanly_on_small_tables(case, risk_free):
    table, n_train = case
    _assert_every_command_exits_cleanly(
        table, n_train, f"risk_free = {risk_free!r}\nrl.batch_size = 2\n"
    )


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(["seed", "rl.seed"]),
    st.sampled_from([-1, 0, 3, 2**63 + 1]),
    st.sampled_from(["nan", "inf", "1e308", "0.001"]),
    st.integers(1, 4),
    st.sampled_from([-1, 0, 1]),
)
def test_every_command_exits_cleanly_on_drawn_config_values(
    seed_key, seed, learning_rate, capacity, batch_offset
):
    # batch sizes on both sides of the replay capacity, down to 1
    batch_size = max(1, capacity + batch_offset)
    table = synthetic.drift_price_table(n_assets=3, n_days=24)
    _assert_every_command_exits_cleanly(
        table,
        12,
        f"{seed_key} = {seed}\nrl.learning_rate = {learning_rate}\n"
        f"rl.batch_size = {batch_size}\nrl.replay_capacity = {capacity}\n",
    )
