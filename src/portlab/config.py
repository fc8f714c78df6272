"""Run configuration: a flat text file of ``key = value`` lines.

Keys are dotted for the agent's hyperparameter block (``rl.window``,
``rl.episodes``, ...). Blank lines and ``#`` comments are ignored.
Absent keys take defaults; ``data``, ``train_end``, and ``test_start``
are required. ``rl.seed`` defaults to the top-level seed so one value
pins the whole run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigError
from .rl.params import Hyperparams


@dataclass(frozen=True)
class RunConfig:
    data: Path
    train_end: date
    test_start: date
    trading_days: int = 252
    risk_free: float = 0.01
    mc_samples: int = 10_000
    frontier_bins: int = 50
    out_dir: Path = Path("runs")
    seed: int = 0
    rl: Hyperparams = field(default_factory=Hyperparams)

    def __post_init__(self) -> None:
        for name in ("trading_days", "mc_samples", "frontier_bins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not math.isfinite(self.risk_free):
            raise ValueError("risk_free must be finite")


def _parse_dims(raw: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in raw.split(",") if tok.strip())


_TOP_LEVEL: dict[str, Callable[[str], Any]] = {
    "data": Path,
    "train_end": date.fromisoformat,
    "test_start": date.fromisoformat,
    "trading_days": int,
    "risk_free": float,
    "mc_samples": int,
    "frontier_bins": int,
    "out_dir": Path,
    "seed": int,
}

_RL: dict[str, Callable[[str], Any]] = {
    "window": int,
    "episodes": int,
    "batch_size": int,
    "rebalance_period": int,
    "learning_rate": float,
    "discount": float,
    "eps_start": float,
    "eps_min": float,
    "eps_decay": float,
    "step_delta": float,
    "hidden_dims": _parse_dims,
    "replay_capacity": int,
    "seed": int,
}

_REQUIRED = ("data", "train_end", "test_start")


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file; every error names the offending key."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None

    top: dict[str, Any] = {}
    rl: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.startswith("rl."):
            table, name, store = _RL, key[3:], rl
        else:
            table, name, store = _TOP_LEVEL, key, top
        if name not in table:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if name in store:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            store[name] = table[name](raw)
        except (ValueError, TypeError):
            raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for key {key!r}") from None

    for name in _REQUIRED:
        if name not in top:
            raise ConfigError(f"{path}: missing required key {name!r}")

    rl.setdefault("seed", top.get("seed", RunConfig.seed))
    try:
        hp = Hyperparams(**rl)
        return RunConfig(rl=hp, **top)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def with_seed(config: RunConfig, seed: int) -> RunConfig:
    """Re-pin both the top-level and agent seeds."""
    return dataclasses.replace(
        config, seed=seed, rl=dataclasses.replace(config.rl, seed=seed)
    )


def with_out_dir(config: RunConfig, out_dir: Path) -> RunConfig:
    return dataclasses.replace(config, out_dir=out_dir)
