"""Run configuration: a flat text file of ``key = value`` lines.

The keys are the fields of :class:`RunConfig` and, prefixed ``rl.``,
those of the agent's :class:`Hyperparams`; each value is parsed by its
field's annotated type, a number or a date by :mod:`~portlab.numtext`'s rule.
Blank lines and ``#`` comments are ignored. Absent keys take their
field's default; a field without one is a required key. ``rl.seed``
defaults to the top-level seed so one value pins the whole run.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import date
from pathlib import Path
from typing import Any, Callable, get_type_hints

from .errors import ConfigError
from .numtext import read_date, read_float, read_int
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
        # up to 2**53 a frontier bin index (volatility share x bins) is an
        # exact float and fits an int64
        if self.frontier_bins > 2**53:
            raise ValueError(f"frontier_bins must be <= 2**53, got {self.frontier_bins}")
        if not math.isfinite(self.risk_free):
            raise ValueError("risk_free must be finite")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _parse_path(raw: str) -> Path:
    # Path("") is Path("."), which no key means, and no file name holds a NUL
    if not raw or "\0" in raw:
        raise ValueError(raw)
    return Path(raw)


def _parse_dims(raw: str) -> tuple[int, ...]:
    return tuple(read_int(tok.strip()) for tok in raw.split(",") if tok.strip())


_PARSERS: dict[Any, Callable[[str], Any]] = {
    int: read_int,
    float: read_float,
    Path: _parse_path,
    date: read_date,
    tuple[int, ...]: _parse_dims,
}


def _key_parsers(cls: type, nested: str | None = None) -> dict[str, Callable[[str], Any]]:
    """Each field of ``cls`` but ``nested``, with the parser for its annotated type."""
    hints = get_type_hints(cls)
    return {f.name: _PARSERS[hints[f.name]] for f in fields(cls) if f.name != nested}


_TOP_LEVEL = _key_parsers(RunConfig, nested="rl")
_RL = _key_parsers(Hyperparams)
_REQUIRED = tuple(
    f.name for f in fields(RunConfig) if f.default is MISSING and f.default_factory is MISSING
)


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
    # top-level values first, so that a bad seed is reported as ``seed``
    # even where ``rl.seed`` inherits it
    try:
        config = RunConfig(**top)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        return replace(config, rl=Hyperparams(**rl))
    except ValueError as exc:
        # Hyperparams messages start with the field name; the key has the prefix
        raise ConfigError(f"{path}: rl.{exc}") from None


def with_seed(config: RunConfig, seed: int) -> RunConfig:
    """Re-pin both the top-level and agent seeds."""
    return replace(config, seed=seed, rl=replace(config.rl, seed=seed))

