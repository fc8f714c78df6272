"""The float-table CSV writer against the per-point writers it replaced.

The reference writers below are the per-row writers that the table
writer replaced: ``csv.writer`` over ``repr(float(w))`` cells for the
cloud and the DQN training log, and string joins of the same cells for
the frontier curve, the RL schedule and the saved Q-network. Every
output file must match them byte for byte.
"""

from __future__ import annotations

import csv
import tracemalloc
from datetime import date

import numpy as np
import pytest

from portlab import floatcsv, mvp
from portlab.analytics import checked_covariance
from portlab.rl.agent import write_training_log
from portlab.rl.network import qnet_init, save_qnetwork
from portlab.rl.params import Hyperparams
from portlab.synthetic import weekday_dates

# cells whose shortest repr is in exponent form, or not what the literal suggests
AWKWARD = [1e-05, 1e16, 0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308, 1.0, 123456789.125]


def reference_frontier_csv(cloud: np.ndarray, path) -> None:
    n = cloud.shape[1] - 3
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["volatility", "return", "sharpe"] + [f"w{i + 1}" for i in range(n)])
        for row in cloud:
            writer.writerow([repr(float(v)) for v in row])


def reference_frontier_rows(cloud: np.ndarray, rows, path) -> None:
    n = cloud.shape[1] - 3
    header = ["volatility", "return", "sharpe"] + [f"w{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    for i in rows:
        lines.append(",".join(repr(float(v)) for v in cloud[i]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_schedule_csv(dates, weights, tickers, path) -> None:
    lines = ["date," + ",".join(tickers)]
    for d, row in zip(dates, weights):
        lines.append(d.isoformat() + "," + ",".join(repr(float(w)) for w in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_training_log(rows, path) -> None:
    """``rows`` of ``(episode, cum_reward, mean_loss, epsilon)``, one per episode."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["episode", "cum_reward", "mean_loss", "epsilon"])
        for episode, cum_reward, mean_loss, epsilon in rows:
            writer.writerow([episode, repr(cum_reward), repr(mean_loss), repr(epsilon)])


def reference_qnetwork(net, path) -> None:
    header = "qnetwork " + " ".join(str(d) for d in net.layer_dims)
    path.write_text("\n".join([header, *map(repr, net.params.tolist())]) + "\n", encoding="utf-8")


def awkward_cloud() -> np.ndarray:
    """Rows on the simplex whose cells hit exponent-form and inexact reprs."""
    weights = np.array(
        [
            [1e-05, 1.0 - 1e-05, 0.0],
            [0.1 + 0.2, 0.7 - 1e-16, 1e-16],
            [1 / 3, 1 / 3, 1 / 3],
            [-0.0, 0.5, 0.5],
        ]
    )
    vols = np.array([1e-05, 0.1 + 0.2, 1e16, 0.25])
    rets = np.array([1e16, -0.0, 0.1 + 0.2, 5e-324])
    return np.column_stack([vols, rets, (rets - 0.01) / vols, weights])


def seeded_cloud(count: int = 2500) -> np.ndarray:
    rng = np.random.default_rng(5)
    data = rng.normal(0, 0.01, size=(120, 6))
    sigma = np.cov(data, rowvar=False, ddof=1)
    mu = rng.uniform(-0.1, 0.3, size=6)
    return mvp.sample_portfolios(mu, checked_covariance(sigma), count, 0.013, 17, 252)


@pytest.mark.parametrize("make", [seeded_cloud, awkward_cloud], ids=["seeded", "awkward"])
def test_frontier_csv_matches_reference(tmp_path, make):
    cloud = make()
    mvp.write_frontier_csv(cloud, tmp_path / "new.csv")
    reference_frontier_csv(cloud, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("make", [seeded_cloud, awkward_cloud], ids=["seeded", "awkward"])
def test_frontier_curve_matches_reference(tmp_path, make):
    cloud = make()
    count = cloud.shape[0]
    selections = [
        np.append(mvp.efficient_frontier(cloud, bins=20), 0),
        np.arange(count)[::-1],  # the seeded cloud's rows span several blocks
        slice(1, None, 3),
        slice(None, None, -2),
        slice(count, None),
    ]
    for rows in selections:
        mvp.write_frontier_rows(cloud, rows, tmp_path / "new.csv")
        picked = range(count)[rows] if isinstance(rows, slice) else rows
        reference_frontier_rows(cloud, picked, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_frontier_csv_holds_one_block(tmp_path):
    # the whole (10,000, 13) table stacked at once would take 1 MB alone
    rng = np.random.default_rng(5)
    sigma = np.cov(rng.normal(0, 0.01, size=(120, 10)), rowvar=False, ddof=1)
    mu = rng.uniform(-0.1, 0.3, 10)
    cloud = mvp.sample_portfolios(mu, checked_covariance(sigma), 10_000, 0.013, 17, 252)
    tracemalloc.start()
    try:
        mvp.write_frontier_csv(cloud, tmp_path / "frontier.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_empty_frontier_curve_is_header_only(tmp_path):
    cloud = awkward_cloud()
    mvp.write_frontier_rows(cloud, np.array([], dtype=int), tmp_path / "new.csv")
    reference_frontier_rows(cloud, [], tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [1, 2100])
def test_schedule_csv_matches_reference(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    draws = rng.uniform(size=(n_rows, 4))
    weights = draws / draws.sum(axis=1, keepdims=True)
    weights[0] = [1e-05, 0.1 + 0.2, 0.7 - 1e-05, 0.0]
    dates = weekday_dates(date(2015, 1, 1), n_rows)
    tickers = ("A", "B", "C", "D")
    # the call cli.cmd_rl_eval makes, labelled by the return table's dates
    floatcsv.write_float_csv(tmp_path / "new.csv", ["date", *tickers], weights, labels=dates)
    reference_schedule_csv(dates, weights, tickers, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n_episodes", [0, 1, 1100])
def test_training_log_matches_reference(tmp_path, n_episodes):
    rng = np.random.default_rng(n_episodes)
    rewards = rng.normal(0, 50, n_episodes).tolist()
    losses = rng.uniform(0, 60, n_episodes).tolist()
    rows = [(i, rewards[i], losses[i], 0.95**i) for i in range(n_episodes)]
    if rows:
        rows[0] = (0, AWKWARD[0], AWKWARD[1], AWKWARD[3])
    # the (episodes, 3) array that rl.agent.train returns, the episode its row index
    log = np.array([row[1:] for row in rows]).reshape(n_episodes, 3)
    write_training_log(log, tmp_path / "new.csv")
    reference_training_log(rows, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_saved_qnetwork_matches_reference(tmp_path):
    net = qnet_init(10, Hyperparams(hidden_dims=(64, 32)), np.random.default_rng(7))
    net.params[: len(AWKWARD)] = AWKWARD
    save_qnetwork(net, tmp_path / "new.txt")
    reference_qnetwork(net, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_cells_are_shortest_repr(tmp_path):
    values = np.array([AWKWARD, [np.inf, -np.inf, np.nan, 2.0, 0.5, -1e-300, 1e22, 0.0]])
    floatcsv.write_float_csv(tmp_path / "t.csv", [f"c{i}" for i in range(8)], values, ["x", "y"])
    lines = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "x,1e-05,1e+16,0.30000000000000004,-0.0,5e-324,1.7976931348623157e+308,1.0,123456789.125"
    assert lines[2] == "y,inf,-inf,nan,2.0,0.5,-1e-300,1e+22,0.0"
    assert [float(c) for c in lines[1].split(",")[1:]] == AWKWARD

