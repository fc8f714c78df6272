"""Run-config parsing: value types, the agent's seed default, overrides, and errors.

Every error is a :class:`ConfigError` naming the file and, where there
is one, the offending key; errors tied to one line name it as
``path:lineno``.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path

import pytest

from portlab.config import RunConfig, load_config, with_out_dir, with_seed
from portlab.errors import ConfigError

REQUIRED = "data = prices.csv\ntrain_end = 2019-05-03\ntest_start = 2019-05-06\n"


def _load(tmp_path, text: str) -> RunConfig:
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


def test_values_parse_to_their_types(tmp_path):
    config = _load(
        tmp_path,
        "# comment line\n\n"
        + REQUIRED
        + "trading_days = 250\nrisk_free = 0.025\nout_dir = some/dir\nseed = 11\n"
        "rl.hidden_dims = 16, 8,\nrl.learning_rate = 1e-4\nrl.episodes = 3\n",
    )
    assert config.data == Path("prices.csv")
    assert config.train_end == date(2019, 5, 3)
    assert config.test_start == date(2019, 5, 6)
    assert config.trading_days == 250
    assert config.risk_free == 0.025
    assert config.out_dir == Path("some/dir")
    assert config.rl.hidden_dims == (16, 8)
    assert config.rl.learning_rate == 1e-4
    assert config.rl.episodes == 3
    assert config.mc_samples == RunConfig.mc_samples


def test_agent_seed_defaults_to_top_level_seed(tmp_path):
    assert _load(tmp_path, REQUIRED + "seed = 11\n").rl.seed == 11
    assert _load(tmp_path, REQUIRED + "seed = 11\nrl.seed = 3\n").rl.seed == 3
    assert _load(tmp_path, REQUIRED).rl.seed == RunConfig.seed


def test_with_seed_repins_both_seeds(tmp_path):
    config = with_seed(_load(tmp_path, REQUIRED + "seed = 11\nrl.seed = 3\n"), 42)
    assert (config.seed, config.rl.seed) == (42, 42)


def test_with_out_dir_changes_only_the_destination(tmp_path):
    config = _load(tmp_path, REQUIRED)
    moved = with_out_dir(config, Path("elsewhere"))
    assert moved.out_dir == Path("elsewhere")
    assert with_out_dir(moved, config.out_dir) == config


@pytest.mark.parametrize(
    ("extra", "where"),
    [
        ("colour = red\n", ":4: unknown key 'colour'"),
        ("rl.colour = red\n", ":4: unknown key 'rl.colour'"),
        ("seed = 1\nseed = 2\n", ":5: duplicate key 'seed'"),
        ("mc_samples = many\n", ":4: bad value 'many' for key 'mc_samples'"),
        ("risk_free = high\n", ":4: bad value 'high' for key 'risk_free'"),
        ("rl.hidden_dims = 8,x\n", ":4: bad value '8,x' for key 'rl.hidden_dims'"),
        ("train_end 2019-05-03\n", ":4: expected 'key = value'"),
    ],
    ids=["unknown", "unknown-rl", "duplicate", "bad-int", "bad-float", "bad-dims", "no-equals"],
)
def test_line_errors_name_the_line_and_key(tmp_path, extra, where):
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, REQUIRED + extra)
    assert str(info.value).startswith(str(tmp_path / "run.cfg"))
    assert where in str(info.value)


@pytest.mark.parametrize("key", ["data", "train_end", "test_start"])
def test_missing_required_key_is_named(tmp_path, key):
    text = "".join(line + "\n" for line in REQUIRED.splitlines() if not line.startswith(key))
    with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
        _load(tmp_path, text)


def test_bad_date_names_the_line_and_key(tmp_path):
    with pytest.raises(ConfigError, match=r":2: bad value '2019-13-01' for key 'train_end'"):
        _load(tmp_path, REQUIRED.replace("2019-05-03", "2019-13-01"))
