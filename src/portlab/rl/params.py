"""Hyperparameters for the DQN rebalancing agent."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs; defaults are the artifact's, all overridable from config.

    ``step_delta`` is the weight fraction a buy/sell action moves before
    renormalization; ``eps_decay`` applies multiplicatively once per episode.
    Every error message starts with the field it names.
    """

    window: int = 60
    episodes: int = 50
    batch_size: int = 32
    rebalance_period: int = 5
    learning_rate: float = 1e-3
    discount: float = 0.9
    eps_start: float = 1.0
    eps_min: float = 0.05
    eps_decay: float = 0.95
    step_delta: float = 0.02
    hidden_dims: tuple[int, ...] = (64, 32)
    replay_capacity: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.rebalance_period < 1:
            raise ValueError("rebalance_period must be >= 1")
        # written as not (0 < x < inf) so that NaN fails
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        for name in ("eps_start", "eps_min", "eps_decay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.step_delta < 1.0:
            raise ValueError("step_delta must be in (0, 1)")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims widths must be >= 1")
        if self.replay_capacity < 1:
            raise ValueError("replay_capacity must be >= 1")
        if self.batch_size > self.replay_capacity:
            # the buffer would never hold a batch, so no gradient step would run
            raise ValueError(
                f"batch_size {self.batch_size} exceeds replay_capacity {self.replay_capacity}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
