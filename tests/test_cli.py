"""CLI diagnostics: a bad saved model gives exit 1 and one ``error:`` line."""

from __future__ import annotations

import pytest

from portlab import cli
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
