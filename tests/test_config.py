"""Run-config parsing: value types, the agent's seed default, overrides, and errors.

Every error is a :class:`ConfigError` naming the file and, where there
is one, the offending key; errors tied to one line name it as
``path:lineno``.
"""

from __future__ import annotations

from dataclasses import fields
from datetime import date
from pathlib import Path

import pytest

from conftest import REPO_ROOT
from portlab.config import RunConfig, load_config, with_seed
from portlab.errors import ConfigError
from portlab.rl.params import Hyperparams

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


def _as_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def test_every_field_is_a_key(tmp_path):
    expected = RunConfig(Path("prices.csv"), date(2019, 5, 3), date(2019, 5, 6))
    lines = [
        f"{f.name} = {_as_text(getattr(expected, f.name))}"
        for f in fields(RunConfig)
        if f.name != "rl"
    ]
    lines += [
        f"rl.{f.name} = {_as_text(getattr(expected.rl, f.name))}" for f in fields(Hyperparams)
    ]
    assert _load(tmp_path, "".join(line + "\n" for line in lines)) == expected


def test_demo_config_loads_unchanged():
    assert load_config(REPO_ROOT / "configs" / "demo.cfg") == RunConfig(
        data=Path("data/synthetic_prices.csv"),
        train_end=date(2019, 5, 3),
        test_start=date(2019, 5, 6),
        trading_days=252,
        risk_free=0.01,
        mc_samples=10000,
        frontier_bins=50,
        out_dir=Path("runs/demo"),
        seed=7,
        rl=Hyperparams(
            window=60,
            episodes=50,
            batch_size=32,
            rebalance_period=5,
            learning_rate=0.001,
            discount=0.9,
            eps_start=1.0,
            eps_min=0.05,
            eps_decay=0.95,
            step_delta=0.02,
            hidden_dims=(64, 32),
            replay_capacity=10000,
            seed=7,
        ),
    )


def test_agent_seed_defaults_to_top_level_seed(tmp_path):
    assert _load(tmp_path, REQUIRED + "seed = 11\n").rl.seed == 11
    assert _load(tmp_path, REQUIRED + "seed = 11\nrl.seed = 3\n").rl.seed == 3
    assert _load(tmp_path, REQUIRED).rl.seed == RunConfig.seed


def test_with_seed_repins_both_seeds(tmp_path):
    config = with_seed(_load(tmp_path, REQUIRED + "seed = 11\nrl.seed = 3\n"), 42)
    assert (config.seed, config.rl.seed) == (42, 42)


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


@pytest.mark.parametrize(
    ("extra", "message"),
    [
        ("seed = -1\n", ": seed must be >= 0, got -1"),
        ("rl.seed = -1\n", ": rl.seed must be >= 0, got -1"),
        ("rl.learning_rate = nan\n", ": rl.learning_rate must be finite and > 0, got nan"),
        ("rl.learning_rate = inf\n", ": rl.learning_rate must be finite and > 0, got inf"),
        ("rl.learning_rate = 0\n", ": rl.learning_rate must be finite and > 0, got 0.0"),
        (
            "rl.batch_size = 64\nrl.replay_capacity = 40\n",
            ": rl.batch_size 64 exceeds replay_capacity 40",
        ),
    ],
    ids=["seed", "rl-seed", "nan-learning-rate", "inf-learning-rate", "zero-learning-rate",
         "batch-above-capacity"],
)
def test_out_of_range_value_names_its_key(tmp_path, extra, message):
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, REQUIRED + extra)
    assert str(info.value) == str(tmp_path / "run.cfg") + message


def test_with_seed_rejects_a_negative_seed(tmp_path):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        with_seed(_load(tmp_path, REQUIRED), -1)
