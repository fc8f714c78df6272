"""Q-network gradients and parameters, TD targets, the one-pass step, round-trips, tabular check."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    loss_and_grads,
    read_training_log,
    tabular_q_check,
    td_target,
    two_pass_step,
    two_state_chain,
)
from portlab.errors import ModelFormatError
from portlab.rl.agent import ReplayBatch, learn_step, write_training_log
from portlab.rl.network import (
    QNetwork,
    _forward_batch,
    load_qnetwork,
    qnet_init,
    save_qnetwork,
    td_targets,
)
from portlab.rl.params import Hyperparams


def _net(n_assets=3, hidden=(6, 5), seed=4):
    return qnet_init(n_assets, Hyperparams(hidden_dims=hidden), np.random.default_rng(seed))


def _loss(net, x, actions, targets) -> float:
    return loss_and_grads(net, x, actions, targets)[0]


def _batch(rng, net, dones) -> ReplayBatch:
    """Random states over random next states, one row per entry of ``dones``."""
    n = len(dones)
    return ReplayBatch(
        inputs=rng.normal(size=(2, n, net.n_inputs)),
        actions=rng.integers(0, net.n_outputs, size=n),
        rewards=rng.normal(size=n),
        dones=np.array(dones, dtype=bool),
    )


def test_loss_gradients_match_central_differences():
    rng = np.random.default_rng(8)
    net = _net()
    for b in net.biases:
        b += rng.normal(0.0, 0.1, size=b.shape)
    x = rng.normal(size=(7, net.n_inputs))
    actions = rng.integers(0, net.n_outputs, size=7)
    targets = rng.normal(size=7)
    _, grad_w, grad_b = loss_and_grads(net, x, actions, targets)

    h = 1e-6
    for params, grads in ((net.weights, grad_w), (net.biases, grad_b)):
        for p, g in zip(params, grads):
            numeric = np.empty_like(p)
            for idx in np.ndindex(p.shape):
                saved = p[idx]
                p[idx] = saved + h
                up = _loss(net, x, actions, targets)
                p[idx] = saved - h
                down = _loss(net, x, actions, targets)
                p[idx] = saved
                numeric[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(g, numeric, rtol=1e-5, atol=1e-8)


def test_td_targets_equal_scalar_rule_row_by_row():
    rng = np.random.default_rng(1)
    net = _net()
    batch = _batch(rng, net, [False, True, False, False, True, True, False, True, False])
    max_next = _forward_batch(net, batch.next_states).max(axis=1)
    want = [
        td_target(r, 0.9, m, d) for r, m, d in zip(batch.rewards, max_next, batch.dones)
    ]
    got = td_targets(batch, _forward_batch(net, batch.next_states), 0.9)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.array(want))
    assert np.array_equal(got[batch.dones], batch.rewards[batch.dones])


def test_qnetwork_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    net = _net()
    for b in net.biases:
        b += rng.normal(size=b.shape) / 3
    path = tmp_path / "model.txt"
    save_qnetwork(net, path)
    loaded = load_qnetwork(path)
    assert loaded.layer_dims == net.layer_dims
    for got, want in zip(loaded.weights + loaded.biases, net.weights + net.biases):
        assert np.array_equal(got, want)
    again = tmp_path / "again.txt"
    save_qnetwork(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _save_order(net) -> np.ndarray:
    return np.concatenate([a.ravel() for w, b in zip(net.weights, net.biases) for a in (w, b)])


def test_layers_are_views_of_one_flat_parameter_vector(tmp_path):
    net = _net()
    dims = net.layer_dims
    assert net.params.shape == (sum((i + 1) * o for i, o in zip(dims, dims[1:])),)
    for p in net.weights + net.biases:
        assert np.shares_memory(p, net.params)
    # the flat layout is the save order: each weight matrix, then its bias
    assert np.array_equal(net.params, _save_order(net))
    net.biases[1][0] = 0.25
    net.weights[0][1, 2] -= 1.0
    assert np.array_equal(net.params, _save_order(net))

    path = tmp_path / "model.txt"
    save_qnetwork(net, path)
    loaded = load_qnetwork(path)
    assert np.array_equal(loaded.params, net.params)
    assert not np.shares_memory(loaded.params, net.params)
    for p in loaded.weights + loaded.biases:
        assert np.shares_memory(p, loaded.params)


def test_train_step_equals_per_layer_update_bit_for_bit():
    rng = np.random.default_rng(6)
    net = _net()
    ref = _net()
    hp = Hyperparams(hidden_dims=(6, 5), discount=0.9, learning_rate=0.01)
    batch = _batch(rng, net, [False] * 9)
    for step in range(3):
        targets = td_targets(batch, _forward_batch(ref, batch.next_states), 0.9)
        loss = learn_step(net, batch, np.arange(9), hp, step)
        ref_loss, grad_w, grad_b = loss_and_grads(ref, batch.states, batch.actions, targets)
        for p, g in zip(ref.weights + ref.biases, grad_w + grad_b):
            p -= 0.01 * g
        assert loss == ref_loss
        assert np.array_equal(net.params, ref.params)


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=2),
    n_assets=st.integers(2, 4),
    batch_size=st.integers(1, 64),
    slots=st.integers(1, 64),
    done_share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_step_equals_two_pass_oracle(
    hidden, n_assets, batch_size, slots, done_share, seed
):
    # a batch drawn with replacement from fewer slots than rows repeats
    # transitions, as the replay buffer's uniform sample does
    rng = np.random.default_rng(seed)
    net = _net(n_assets=n_assets, hidden=tuple(hidden), seed=seed)
    ref = QNetwork(net.layer_dims, net.params.copy())
    hp = Hyperparams(hidden_dims=tuple(hidden), discount=0.9, learning_rate=0.05)
    pool = _batch(rng, net, rng.random(slots) < done_share)
    rows = np.arange(batch_size)
    for step in range(3):
        idx = rng.integers(0, slots, size=batch_size)
        batch = ReplayBatch(
            pool.inputs[:, idx],
            pool.actions[idx],
            pool.rewards[idx],
            pool.dones[idx],
        )
        loss = learn_step(net, batch, rows, hp, step)
        assert loss == two_pass_step(ref, batch, hp.discount, hp.learning_rate)
        assert net.params.tobytes() == ref.params.tobytes()
        assert net._grad.tobytes() == ref._grad.tobytes()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda lines: lines[:-1],
        lambda lines: lines + ["0.5"],
        lambda lines: ["qnetwork ten 5"] + lines[1:],
        lambda lines: ["qnetwork 6"] + lines[1:],
        lambda lines: ["qnetwork 0 0"],
        lambda lines: ["weights 6 5 7"] + lines[1:],
        lambda lines: lines[:3] + ["abc"] + lines[4:],
        lambda lines: lines[:3] + ["nan"] + lines[4:],
        lambda lines: [],
    ],
    ids=[
        "truncated",
        "trailing-value",
        "bad-dim",
        "one-dim",
        "zero-dims",
        "bad-magic",
        "bad-value",
        "non-finite-value",
        "empty",
    ],
)
def test_load_qnetwork_rejects_malformed_file(tmp_path, mangle):
    path = tmp_path / "model.txt"
    save_qnetwork(_net(n_assets=2, hidden=(5,)), path)
    lines = mangle(path.read_text(encoding="utf-8").splitlines())
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_qnetwork(path)


def test_training_log_round_trip_is_exact(tmp_path):
    log = np.array(
        [
            [0.1 + 0.2, 1e-300, 1.0],
            [-12345.678901234567, 0.0, 0.95],
            [5e-324, 3.141592653589793, 0.05],
        ]
    )
    path = tmp_path / "log.csv"
    write_training_log(log, path)
    assert read_training_log(path).tobytes() == log.tobytes()


def test_tabular_q_learning_converges_to_value_iteration():
    assert tabular_q_check(two_state_chain(), discount=0.9, alpha=0.1, steps=20_000) < 1e-10
