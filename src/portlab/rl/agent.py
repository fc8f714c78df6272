"""DQN training loop, replay buffer, epsilon-greedy policy, and evaluation.

Training is strictly sequential and bit-reproducible: one generator
seeded from the hyperparameters drives network init, exploration, and
replay sampling in a fixed order. Each :func:`train` and
:func:`evaluate` call builds one :class:`~.env.FeatureTable` for its
return table, so every correlation window is computed once per call.
Transitions live in preallocated arrays inside :class:`ReplayBuffer`.
A state's correlation features are row ``k`` of the feature table, so a
slot stores the state's and next state's rows ``k`` and ``k_next`` and
their two weight vectors, plus action, reward and done: O(capacity x N)
floats rather than O(capacity x N^2). A sample gathers the drawn slots'
feature rows and weights into one ``(batch, 2 * state_dim)`` array,
each row the state's network input followed by the next state's, and
hands the two halves to the network as views, inside a
:class:`ReplayBatch`: the same float64 values in the same layout as
storing the feature vectors themselves. The training log is one
``(episodes, 3)`` array, a row per episode, that
:func:`write_training_log` writes as ``rl_training_log.csv``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..analytics import ReturnTable
from ..errors import DivergenceError
from ..floatcsv import write_float_csv
from .env import EnvState, FeatureTable, env_reset, env_step, state_features
from .network import QNetwork, qnet_forward, qnet_init, qnet_train_step, td_targets
from .params import Hyperparams

# columns of the training log that train returns
LOG_COLUMNS = ("cum_reward", "mean_loss", "epsilon")


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
    number ``p`` (from 0) writes slot ``p % capacity``. A slot holds its
    state's and next state's :class:`~.env.FeatureTable` rows ``k`` and
    ``k_next`` and their two weight vectors, not their feature vectors,
    so memory grows as capacity x N rather than capacity x N^2. The
    arrays are allocated uninitialised, so only the slots written so far
    touch memory.
    """

    def __init__(self, capacity: int, table: FeatureTable):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._table = table
        self._windows = np.empty((capacity, 2), dtype=np.intp)
        self._weights = np.empty((capacity, 2, table.returns.n_assets))
        self._actions = np.empty(capacity, dtype=int)
        self._rewards = np.empty(capacity)
        self._dones = np.empty(capacity, dtype=bool)
        self._pushes = 0

    def push(
        self,
        state: EnvState,
        action: int,
        reward: float,
        next_state: EnvState,
        done: bool,
    ) -> None:
        if not math.isfinite(reward):
            raise ValueError("reward must be finite")
        slot = self._pushes % self.capacity
        self._windows[slot, 0] = self._table.row(state.t)
        self._windows[slot, 1] = self._table.row(next_state.t)
        self._weights[slot, 0] = state.weights
        self._weights[slot, 1] = next_state.weights
        self._actions[slot] = action
        self._rewards[slot] = reward
        self._dones[slot] = done
        self._pushes += 1

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int) -> ReplayBatch:
        """Uniform sample with replacement.

        Gathers the drawn slots' feature rows and weights into one
        ``(batch_size, 2 * state_dim)`` array, each row the state's
        features and weights followed by the next state's; ``states`` and
        ``next_states`` are views into its two halves.
        """
        idx = rng.integers(0, len(self), size=batch_size)
        features = self._table.values.take(self._windows.take(idx, axis=0), axis=0)
        pairs = np.concatenate((features, self._weights.take(idx, axis=0)), axis=2)
        pairs = pairs.reshape(batch_size, -1)
        half = pairs.shape[1] // 2
        return ReplayBatch(
            pairs[:, :half],
            self._actions[idx],
            self._rewards[idx],
            pairs[:, half:],
            self._dones[idx],
        )


def epsilon_greedy(qvals: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Uniform random action with probability eps, else argmax (ties: lowest id)."""
    if rng.random() < eps:
        return int(rng.integers(0, len(qvals)))
    return int(qvals.argmax())


def train(
    returns_train: ReturnTable, hp: Hyperparams, trading_days: int
) -> tuple[QNetwork, np.ndarray]:
    """Run the replay-trained DQN loop; return the network and the training log.

    The log is an ``(episodes, 3)`` array: row ``e`` holds episode
    ``e``'s cumulative reward, mean loss and epsilon (:data:`LOG_COLUMNS`).

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
    buffer = ReplayBuffer(hp.replay_capacity, table)
    eps = hp.eps_start
    log = np.empty((hp.episodes, len(LOG_COLUMNS)))
    global_step = 0

    # A diverging network overflows before its loss turns non-finite;
    # qnet_train_step then raises DivergenceError, which is the one report
    # the caller gets, so numpy's floating-point warnings stay silent.
    with np.errstate(over="ignore", invalid="ignore"):
        for episode in range(hp.episodes):
            state = env_reset(table, hp)
            cum_reward = 0.0
            losses: list[float] = []
            done = False
            while not done:
                features = state_features(state, table)
                action = epsilon_greedy(qnet_forward(net, features), eps, rng)
                next_state, reward, done = env_step(state, action, table, hp, trading_days)
                buffer.push(state, action, reward, next_state, done)
                cum_reward += reward
                if len(buffer) >= hp.batch_size:
                    batch = buffer.sample(rng, hp.batch_size)
                    targets = td_targets(batch, net, hp.discount)
                    loss = qnet_train_step(net, batch, targets, hp.learning_rate, global_step)
                    losses.append(loss)
                state = next_state
                global_step += 1
            mean_loss = float(np.mean(losses)) if losses else 0.0
            log[episode] = cum_reward, mean_loss, eps
            eps = max(hp.eps_min, eps * hp.eps_decay)

    # qnet_train_step checks the loss before its update, so only this
    # catches an update that overflows on the last step
    if not np.all(np.isfinite(net.params)):
        raise DivergenceError(f"non-finite network parameters after step {global_step - 1}")
    return net, log


def evaluate(
    net: QNetwork, returns_test: ReturnTable, hp: Hyperparams, trading_days: int
) -> np.ndarray:
    """Roll the greedy policy over the test table; return one weight row per return row.

    The ``(T, N)`` schedule covers every test date: equal weights during
    the initial lookback window, each action's adjusted weights for the
    days they were held, and the final weights over any trailing
    remainder. Scoring it is :func:`portlab.backtest.run_backtest`'s job.
    """
    n_rows, n_assets = returns_test.values.shape
    weights = np.empty((n_rows, n_assets))
    table = FeatureTable(returns_test, hp)
    state = env_reset(table, hp)
    weights[: state.t] = state.weights
    done = False
    while not done:
        action = int(qnet_forward(net, state_features(state, table)).argmax())
        next_state, _, done = env_step(state, action, table, hp, trading_days)
        weights[state.t : next_state.t] = next_state.weights
        state = next_state
    weights[state.t :] = state.weights
    return weights


def write_training_log(log: np.ndarray, path: str | Path) -> None:
    """CSV log: ``episode,cum_reward,mean_loss,epsilon``, the episode being the row index."""
    labels = [str(episode) for episode in range(log.shape[0])]
    write_float_csv(path, ["episode", *LOG_COLUMNS], log, labels=labels)
