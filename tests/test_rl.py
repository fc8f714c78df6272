"""DQN agent: feature table, replay buffer, and bit-identity with a reference loop.

The reference below is the straightforward form of the training loop:
correlation features recomputed at every step, transitions kept as
objects in a list-backed ring buffer, batches stacked row by row, and
one scalar :func:`td_target` per row. ``train`` must reproduce it bit
for bit, since it only changes how the same data is stored.
"""

from __future__ import annotations

import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import portlab.rl.env
from helpers import random_returns
from oracles import loss_and_grads, on_simplex, td_target
from portlab.analytics import ReturnTable, annualize, correlation_values
from portlab.errors import DivergenceError, InsufficientDataError, NonFiniteError
from portlab.rl.agent import ReplayBuffer, epsilon_greedy, evaluate, train
from portlab.rl.env import (
    VOL_FLOOR,
    EnvState,
    FeatureTable,
    annualized_sharpe,
    apply_action,
    env_reset,
    env_step,
    hold_action,
    num_actions,
)
from portlab.rl.network import qnet_forward, qnet_init, qnet_layers
from portlab.rl.params import Hyperparams


@dataclass(frozen=True)
class _Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


class _ListReplay:
    """Ring buffer over a Python list: append until full, then overwrite oldest."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: list[_Transition] = []
        self.cursor = 0

    def push(self, transition: _Transition) -> None:
        if len(self.items) < self.capacity:
            self.items.append(transition)
        else:
            self.items[self.cursor] = transition
            self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, rng: np.random.Generator, batch_size: int) -> list[_Transition]:
        idx = rng.integers(0, len(self.items), size=batch_size)
        return [self.items[i] for i in idx]


def _reference_features(values: np.ndarray, t: int, window: int, weights) -> np.ndarray:
    corr = correlation_values(values[t - window : t], [f"T{i}" for i in range(values.shape[1])])
    return np.concatenate([corr[np.triu_indices(corr.shape[0], k=1)], weights])


def _reference_train(returns, hp: Hyperparams, trading_days: int):
    values = returns.values
    n_rows, n = values.shape
    rng = np.random.default_rng(hp.seed)
    net = qnet_init(n, hp, rng)
    buffer = _ListReplay(hp.replay_capacity)
    eps = hp.eps_start
    log = []
    for episode in range(hp.episodes):
        t = hp.window
        weights = np.full(n, 1.0 / n)
        features = _reference_features(values, t, hp.window, weights)
        cum_reward = 0.0
        losses = []
        done = False
        while not done:
            action = epsilon_greedy(qnet_forward(net, features), eps, rng)
            weights = apply_action(weights, action, hp.step_delta)
            reward = annualized_sharpe(values[t : t + hp.rebalance_period] @ weights, trading_days)
            t += hp.rebalance_period
            done = (n_rows - t) < hp.rebalance_period
            next_features = _reference_features(values, t, hp.window, weights)
            buffer.push(_Transition(features, action, reward, next_features, done))
            cum_reward += reward
            if len(buffer.items) >= hp.batch_size:
                batch = buffer.sample(rng, hp.batch_size)
                max_next = qnet_layers(
                    net, np.stack([b.next_state for b in batch])
                )[-1].max(axis=1)
                targets = np.array(
                    [
                        td_target(b.reward, hp.discount, m, b.done)
                        for b, m in zip(batch, max_next)
                    ]
                )
                x = np.stack([b.state for b in batch])
                actions = np.array([b.action for b in batch], dtype=int)
                loss, grad_w, grad_b = loss_and_grads(net, x, actions, targets)
                for w, b, gw, gb in zip(net.weights, net.biases, grad_w, grad_b):
                    w -= hp.learning_rate * gw
                    b -= hp.learning_rate * gb
                losses.append(loss)
            features = next_features
        mean_loss = float(np.mean(losses)) if losses else 0.0
        log.append([cum_reward, mean_loss, eps])
        eps = max(hp.eps_min, eps * hp.eps_decay)
    return net, log


def _small_hp(**overrides) -> Hyperparams:
    base = dict(
        window=10,
        episodes=6,
        batch_size=8,
        rebalance_period=3,
        hidden_dims=(16, 8),
        replay_capacity=1000,
        seed=3,
    )
    base.update(overrides)
    return Hyperparams(**base)


@pytest.mark.parametrize(
    ("capacity", "trading_days"),
    [(1000, 252), (50, 252), (1000, 365), (50, 365)],
    ids=["buffer-never-fills", "buffer-evicts", "buffer-never-fills-365", "buffer-evicts-365"],
)
def test_train_matches_reference_loop_bit_for_bit(capacity, trading_days):
    returns = random_returns(np.random.default_rng(11), 80, 4)
    hp = _small_hp(replay_capacity=capacity)
    steps = range(hp.window + hp.rebalance_period, returns.n_rows + 1, hp.rebalance_period)
    pushes = hp.episodes * len(steps)
    assert (pushes > capacity) == (capacity == 50)

    net, log = train(returns, hp, trading_days)
    ref_net, ref_log = _reference_train(returns, hp, trading_days)

    assert log.shape == (hp.episodes, 3)
    assert log.tolist() == ref_log
    for got, want in zip(net.weights + net.biases, ref_net.weights + ref_net.biases):
        assert np.array_equal(got, want)


def test_feature_table_rows_are_the_visited_windows():
    returns = random_returns(np.random.default_rng(5), 47, 5)
    hp = _small_hp(window=7, rebalance_period=4)
    table = FeatureTable(returns, hp)
    times = range(hp.window, returns.n_rows + 1, hp.rebalance_period)
    triu = np.triu_indices(returns.n_assets, k=1)
    assert table.values.shape == (len(times), len(triu[0]))
    for k, t in enumerate(times):
        want = correlation_values(returns.values[t - hp.window : t], returns.tickers)[triu]
        assert np.array_equal(table.values[k], want)
        assert np.array_equal(table.at(t), want)


def _recorded_stacks(monkeypatch) -> list:
    """Let ``correlation_values`` run as usual; return the window count of every call."""
    sizes = []

    def recorded(values, names):
        sizes.append(values.shape[0])
        return correlation_values(values, names)

    monkeypatch.setattr(portlab.rl.env, "correlation_values", recorded)
    return sizes


@pytest.mark.parametrize(
    ("block_cells", "sizes"),
    [(1 << 17, [11]), (150, [2, 2, 2, 2, 2, 1]), (1, [1] * 11)],
    ids=["one-block", "two-window-blocks", "one-window-blocks"],
)
def test_feature_table_blocks_give_every_window_its_row(monkeypatch, block_cells, sizes):
    returns = random_returns(np.random.default_rng(5), 47, 5)
    hp = _small_hp(window=7, rebalance_period=4)
    whole = FeatureTable(returns, hp).values
    monkeypatch.setattr(portlab.rl.env, "_BLOCK_CELLS", block_cells)
    calls = _recorded_stacks(monkeypatch)
    # 5 assets, window 7: a block holds block_cells // (5 * 12) windows
    assert np.array_equal(FeatureTable(returns, hp).values, whole)
    assert calls == sizes


@pytest.mark.parametrize("block_cells", [1 << 17, 150, 1])
def test_feature_table_overflow_names_the_same_window_whatever_the_blocks(
    monkeypatch, block_cells
):
    returns = random_returns(np.random.default_rng(5), 47, 5)
    values = returns.values.copy()
    # rows 25..27 of column T3: in windows 5 and 6 (rows 20..26 and 24..30)
    values[25:28, 3] = [1e300, -1.0, 1e300]
    bad = ReturnTable(returns.dates, returns.tickers, values)
    monkeypatch.setattr(portlab.rl.env, "_BLOCK_CELLS", block_cells)
    with pytest.raises(NonFiniteError) as exc:
        FeatureTable(bad, _small_hp(window=7, rebalance_period=4))
    first, last = returns.dates[20], returns.dates[26]
    assert str(exc.value) == (
        f"in the window {first} to {last}: sample covariance of T3 over 7 rows overflows float64"
    )


def test_feature_table_too_short_raises():
    hp = _small_hp()
    rng = np.random.default_rng(2)
    short = random_returns(rng, hp.window + hp.rebalance_period, 3)
    with pytest.raises(InsufficientDataError):
        FeatureTable(short, hp)
    with pytest.raises(InsufficientDataError):
        train(short, hp, 252)
    FeatureTable(random_returns(rng, hp.window + hp.rebalance_period + 1, 3), hp)


def _replay_table(n_assets: int = 3, n_rows: int = 47) -> FeatureTable:
    returns = random_returns(np.random.default_rng(5), n_rows, n_assets)
    return FeatureTable(returns, _small_hp(window=7, rebalance_period=4))


def _pushed_weights(p: int) -> np.ndarray:
    return np.array([p, 1.0, 4 - p]) / 5


def test_replay_buffer_ring_order_and_sampling():
    table = _replay_table()
    buffer = ReplayBuffer(3, table)
    for p in range(5):
        # the next state's window is two rows on, so k_next is not k + 1
        state = EnvState(_pushed_weights(p), table.window + p * table.period)
        next_state = EnvState(_pushed_weights(p)[::-1], table.window + (p + 2) * table.period)
        buffer.push(state, p, float(p), next_state, p % 2 == 1)
        assert len(buffer) == min(p + 1, 3)
    # pushes 3 and 4 overwrote slots 0 and 1; slot 2 still holds push 2
    batch = buffer.sample(np.random.default_rng(0), 64)
    slots = np.random.default_rng(0).integers(0, 3, size=64)
    pushed = np.array([3, 4, 2])[slots]
    assert np.array_equal(batch.actions, pushed)
    assert np.array_equal(batch.rewards, pushed.astype(float))
    want = np.array([np.concatenate([table.values[p], _pushed_weights(p)]) for p in pushed])
    want_next = np.array(
        [np.concatenate([table.values[p + 2], _pushed_weights(p)[::-1]]) for p in pushed]
    )
    assert np.array_equal(batch.states, want)
    assert np.array_equal(batch.next_states, want_next)
    assert np.array_equal(batch.dones, pushed % 2 == 1)
    # the network reads one C-contiguous (2, batch, state_dim) stack:
    # the states over the next states, each half a contiguous view
    assert np.array_equal(batch.inputs, np.stack([want, want_next]))
    assert batch.inputs.flags.c_contiguous
    assert batch.states.flags.c_contiguous and batch.next_states.flags.c_contiguous
    assert batch.states.base is batch.next_states.base is batch.inputs


def test_replay_buffer_memory_is_linear_in_assets():
    # at 200 assets a state has 19,900 correlation features; storing both
    # feature vectors per slot would allocate 2 x 20,100 x 8 B x 100 = 32 MB
    table = _replay_table(n_assets=200, n_rows=15)
    state = EnvState(np.full(200, 1 / 200), table.window)
    next_state = EnvState(np.full(200, 1 / 200), table.window + table.period)
    tracemalloc.start()
    try:
        buffer = ReplayBuffer(100, table)
        for p in range(100):
            buffer.push(state, p % 401, 1.0, next_state, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buffer) == 100
    assert peak < 2**20


def test_divergence_raises_without_numpy_warnings():
    # a huge step size blows the weights up within a few updates; the caller
    # must see DivergenceError alone, not numpy's overflow warnings first
    returns = random_returns(np.random.default_rng(11), 80, 4)
    hp = _small_hp(learning_rate=1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite training loss at step"):
            train(returns, hp, 252)


@pytest.mark.parametrize("daily", [[0.001], [0.001] * 5], ids=["single-day", "constant"])
def test_annualized_sharpe_floors_the_risk(daily):
    # one day, or a constant stream, has (nearly) zero risk: the floor keeps the reward finite
    daily = np.array(daily)
    assert annualized_sharpe(daily, 365) == annualize(daily, 365)[0] / VOL_FLOOR


def test_annualized_sharpe_of_overflowing_volatility_is_nan():
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(annualized_sharpe(np.array([1e300, -1e300, 1e300]), 252))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 60]),
    st.integers(2, 9),
    st.integers(1, 5),
    st.sampled_from([0.02, 0.5, 0.99]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_rollouts_stay_on_the_simplex_and_the_table_grid(
    n_assets, window, period, step_delta, seed, data
):
    # at 60 assets an equal weight is below step_delta, so a sell zeroes it
    rng = np.random.default_rng(seed)
    n_rows = window + period + int(rng.integers(1, 4 * period + 2))
    returns = random_returns(rng, n_rows, n_assets)
    hp = _small_hp(window=window, rebalance_period=period, step_delta=step_delta)
    table = FeatureTable(returns, hp)
    state = env_reset(table, hp)
    done = False
    while True:
        k, off = divmod(state.t - window, period)
        assert off == 0 and 0 <= k < table.values.shape[0]
        assert on_simplex(state.weights)
        if done:
            break
        action = data.draw(st.integers(0, num_actions(n_assets) - 1))
        state, _, done = env_step(state, action, table, hp, 252)


def test_env_step_rejects_non_finite_reward():
    hp = _small_hp()
    returns = random_returns(np.random.default_rng(4), 40, 3)
    table = FeatureTable(returns, hp)
    # finite returns whose squared deviations overflow over the held days
    values = returns.values.copy()
    values[hp.window : hp.window + hp.rebalance_period, 0] = [1e300, -1.0, 1e300]
    table.returns = ReturnTable(returns.dates, returns.tickers, values)
    state = env_reset(table, hp)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="reward over"):
            env_step(state, hold_action(3), table, hp, 252)



def test_evaluate_gives_one_simplex_row_per_return_row():
    # 49 rows, window 7, period 4: blocks start at 7, 11, ..., 43, and the
    # rows 47 and 48 after the last step keep the last block's weights
    returns = random_returns(np.random.default_rng(8), 49, 4)
    hp = _small_hp(window=7, rebalance_period=4)
    net = qnet_init(returns.n_assets, hp, np.random.default_rng(hp.seed))
    weights = evaluate(net, returns, hp, 252)
    assert weights.shape == (returns.n_rows, returns.n_assets)
    assert np.all(weights[: hp.window] == 0.25)
    for start in range(hp.window, 44, hp.rebalance_period):
        block = weights[start : start + hp.rebalance_period]
        assert np.all(block == block[0])
    assert np.all(weights[43:] == weights[43])
    assert not np.all(weights == 0.25)  # the greedy policy moved the weights
    assert all(on_simplex(row) for row in weights)
    assert np.array_equal(evaluate(net, returns, hp, 252), weights)
