"""DQN training loop, replay buffer, epsilon-greedy policy, and evaluation.

Training is strictly sequential and bit-reproducible: one generator
seeded from the hyperparameters drives network init, exploration, and
replay sampling in a fixed order. Each :func:`train` and
:func:`evaluate` call builds one :class:`~.env.FeatureTable` for its
return table, so every correlation window is computed once per call.
Transitions live in preallocated arrays inside :class:`ReplayBuffer`:
each slot's state and next-state feature vectors side by side in one
``(capacity, 2 * state_dim)`` row, plus action, reward and done arrays.
A sample gathers the drawn rows of that array once and hands the two
halves to the network as views, inside a :class:`ReplayBatch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..analytics import ReturnTable
from ..backtest import WeightSchedule
from ..errors import DivergenceError
from ..floatcsv import write_float_csv
from .env import FeatureTable, env_reset, env_step, state_features
from .network import QNetwork, qnet_forward, qnet_init, qnet_train_step, td_targets
from .params import Hyperparams


class ReplayBatch(NamedTuple):
    """Sampled transitions, one row per draw."""

    states: np.ndarray  # (batch, feature_dim) float
    actions: np.ndarray  # (batch,) int
    rewards: np.ndarray  # (batch,) float
    next_states: np.ndarray  # (batch, feature_dim) float
    dones: np.ndarray  # (batch,) bool


class ReplayBuffer:
    """Bounded transition store with ring semantics: oldest evicted first.

    Transitions are kept in preallocated arrays, one row per slot; push
    number ``p`` (from 0) writes slot ``p % capacity``. Row ``i`` of
    ``_state_pairs`` holds slot ``i``'s state followed by its next state.
    The arrays are allocated uninitialised, so only the slots written so
    far touch memory.
    """

    def __init__(self, capacity: int, state_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._dim = state_dim
        self._state_pairs = np.empty((capacity, 2 * state_dim))
        self._actions = np.empty(capacity, dtype=int)
        self._rewards = np.empty(capacity)
        self._dones = np.empty(capacity, dtype=bool)
        self._pushes = 0

    def push(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> None:
        if not math.isfinite(reward):
            raise ValueError("reward must be finite")
        slot = self._pushes % self.capacity
        pair = self._state_pairs[slot]
        pair[: self._dim] = state
        pair[self._dim :] = next_state
        self._actions[slot] = action
        self._rewards[slot] = reward
        self._dones[slot] = done
        self._pushes += 1

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int) -> ReplayBatch:
        """Uniform sample with replacement.

        ``states`` and ``next_states`` are views into one gathered
        ``(batch_size, 2 * state_dim)`` array.
        """
        idx = rng.integers(0, len(self), size=batch_size)
        pairs = self._state_pairs.take(idx, axis=0)
        return ReplayBatch(
            pairs[:, : self._dim],
            self._actions[idx],
            self._rewards[idx],
            pairs[:, self._dim :],
            self._dones[idx],
        )


def epsilon_greedy(qvals: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Uniform random action with probability eps, else argmax (ties: lowest id)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    if rng.random() < eps:
        return int(rng.integers(0, len(qvals)))
    return int(np.argmax(qvals))


@dataclass(frozen=True)
class EpisodeStats:
    episode: int
    cum_reward: float
    mean_loss: float
    epsilon: float


def train(
    returns_train: ReturnTable, hp: Hyperparams, trading_days: int
) -> tuple[QNetwork, list[EpisodeStats]]:
    """Run the replay-trained DQN loop over the training returns.

    Rewards are annualized by ``trading_days``, the run config's value.

    Per episode: reset, act epsilon-greedily until done, push transitions,
    and once the buffer holds a batch do one gradient step per environment
    step on a uniformly sampled batch. Epsilon decays multiplicatively per
    episode down to ``eps_min``. With ``episodes=0`` the freshly
    initialized network is returned untouched. A table too short for one
    step raises :class:`~portlab.errors.InsufficientDataError`, whatever
    the episode count; a non-finite loss or a non-finite parameter after
    the last step raises :class:`~portlab.errors.DivergenceError`.
    """
    table = FeatureTable(returns_train, hp)
    rng = np.random.default_rng(hp.seed)
    net = qnet_init(returns_train.n_assets, hp, rng)
    buffer = ReplayBuffer(hp.replay_capacity, net.n_inputs)
    eps = hp.eps_start
    log: list[EpisodeStats] = []
    global_step = 0

    # A diverging network overflows before its loss turns non-finite;
    # qnet_train_step then raises DivergenceError, which is the one report
    # the caller gets, so numpy's floating-point warnings stay silent.
    with np.errstate(over="ignore", invalid="ignore"):
        for episode in range(hp.episodes):
            state = env_reset(table, hp)
            features = state_features(state, table)
            cum_reward = 0.0
            losses: list[float] = []
            done = False
            while not done:
                action = epsilon_greedy(qnet_forward(net, features), eps, rng)
                next_state, reward, done = env_step(state, action, table, hp, trading_days)
                next_features = state_features(next_state, table)
                buffer.push(features, action, reward, next_features, done)
                cum_reward += reward
                if len(buffer) >= hp.batch_size:
                    batch = buffer.sample(rng, hp.batch_size)
                    targets = td_targets(batch, net, hp.discount)
                    loss = qnet_train_step(net, batch, targets, hp.learning_rate, global_step)
                    losses.append(loss)
                state, features = next_state, next_features
                global_step += 1
            mean_loss = float(np.mean(losses)) if losses else 0.0
            log.append(EpisodeStats(episode, cum_reward, mean_loss, eps))
            eps = max(hp.eps_min, eps * hp.eps_decay)

    # qnet_train_step checks the loss before its update, so only this
    # catches an update that overflows on the last step
    if not np.all(np.isfinite(net.params)):
        raise DivergenceError(f"non-finite network parameters after step {global_step - 1}")
    return net, log


def evaluate(
    net: QNetwork, returns_test: ReturnTable, hp: Hyperparams, trading_days: int
) -> WeightSchedule:
    """Roll the greedy policy over the test table.

    The emitted schedule covers every test date: equal weights during the
    initial lookback window, each action's adjusted weights for the days
    they were held, and the final weights over any trailing remainder.
    Scoring it is :func:`portlab.backtest.run_backtest`'s job.
    """
    n_rows, n_assets = returns_test.values.shape
    weights = np.empty((n_rows, n_assets))
    table = FeatureTable(returns_test, hp)
    state = env_reset(table, hp)
    weights[: state.t] = state.weights
    done = False
    while not done:
        action = int(np.argmax(qnet_forward(net, state_features(state, table))))
        next_state, _, done = env_step(state, action, table, hp, trading_days)
        weights[state.t : next_state.t] = next_state.weights
        state = next_state
    weights[state.t :] = state.weights

    return WeightSchedule(returns_test.dates, weights)


def write_training_log(log: list[EpisodeStats], path: str | Path) -> None:
    """CSV log: ``episode,cum_reward,mean_loss,epsilon``."""
    write_float_csv(
        path,
        ["episode", "cum_reward", "mean_loss", "epsilon"],
        np.array([[row.cum_reward, row.mean_loss, row.epsilon] for row in log]).reshape(-1, 3),
        labels=[str(row.episode) for row in log],
    )
