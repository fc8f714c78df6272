"""The float-table CSV writer against the per-point writers it replaced.

The reference writers below are the per-row writers that the table
writer replaced: ``csv.writer`` over ``repr(float(w))`` cells for the
cloud and the DQN training log, and string joins of the same cells for
the frontier curve and the RL schedule. Every output file must match
them byte for byte.
"""

from __future__ import annotations

import csv
from datetime import date

import numpy as np
import pytest

from helpers import weekdays
from portlab import cli, floatcsv, mvp
from portlab.backtest import WeightSchedule
from portlab.rl.agent import EpisodeStats, write_training_log

# cells whose shortest repr is in exponent form, or not what the literal suggests
AWKWARD = [1e-05, 1e16, 0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308, 1.0, 123456789.125]


def reference_frontier_csv(cloud: mvp.FrontierCloud, path) -> None:
    n = cloud.weights.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["volatility", "return", "sharpe"] + [f"w{i + 1}" for i in range(n)])
        for i in range(cloud.sample_count):
            writer.writerow([repr(float(v)) for v in _row_cells(cloud, i)])


def reference_frontier_rows(cloud: mvp.FrontierCloud, rows, path) -> None:
    n = cloud.weights.shape[1]
    header = ["volatility", "return", "sharpe"] + [f"w{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    for i in rows:
        lines.append(",".join(repr(float(v)) for v in _row_cells(cloud, i)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _row_cells(cloud: mvp.FrontierCloud, i: int) -> list:
    return [cloud.volatilities[i], cloud.returns[i], cloud.sharpes[i], *cloud.weights[i]]


def reference_schedule_csv(schedule: WeightSchedule, tickers, path) -> None:
    lines = ["date," + ",".join(tickers)]
    for d, row in zip(schedule.dates, schedule.weights):
        lines.append(d.isoformat() + "," + ",".join(repr(float(w)) for w in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_training_log(log, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["episode", "cum_reward", "mean_loss", "epsilon"])
        for row in log:
            writer.writerow(
                [row.episode, repr(row.cum_reward), repr(row.mean_loss), repr(row.epsilon)]
            )


def awkward_cloud() -> mvp.FrontierCloud:
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
    return mvp.FrontierCloud(vols, rets, (rets - 0.01) / vols, weights, risk_free=0.01)


def seeded_cloud(count: int = 2500) -> mvp.FrontierCloud:
    rng = np.random.default_rng(5)
    data = rng.normal(0, 0.01, size=(120, 6))
    sigma = np.cov(data, rowvar=False, ddof=1)
    mu = rng.uniform(-0.1, 0.3, size=6)
    return mvp.sample_portfolios(mu, sigma, count, 0.013, seed=17)


@pytest.mark.parametrize("make", [seeded_cloud, awkward_cloud], ids=["seeded", "awkward"])
def test_frontier_csv_matches_reference(tmp_path, make):
    cloud = make()
    mvp.write_frontier_csv(cloud, tmp_path / "new.csv")
    reference_frontier_csv(cloud, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("make", [seeded_cloud, awkward_cloud], ids=["seeded", "awkward"])
def test_frontier_curve_matches_reference(tmp_path, make):
    cloud = make()
    rows = np.append(mvp.efficient_frontier(cloud, bins=20), 0)
    mvp.write_frontier_rows(cloud, rows, tmp_path / "new.csv")
    reference_frontier_rows(cloud, rows, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
    schedule = WeightSchedule(weekdays(n_rows, date(2015, 1, 1)), weights)
    tickers = ("A", "B", "C", "D")
    cli._write_schedule_csv(schedule, tickers, tmp_path / "new.csv")
    reference_schedule_csv(schedule, tickers, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n_episodes", [0, 1, 1100])
def test_training_log_matches_reference(tmp_path, n_episodes):
    rng = np.random.default_rng(n_episodes)
    rewards = rng.normal(0, 50, n_episodes).tolist()
    losses = rng.uniform(0, 60, n_episodes).tolist()
    log = [EpisodeStats(i, rewards[i], losses[i], 0.95**i) for i in range(n_episodes)]
    if log:
        log[0] = EpisodeStats(0, AWKWARD[0], AWKWARD[1], AWKWARD[3])
    write_training_log(log, tmp_path / "new.csv")
    reference_training_log(log, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_cells_are_shortest_repr(tmp_path):
    values = np.array([AWKWARD, [np.inf, -np.inf, np.nan, 2.0, 0.5, -1e-300, 1e22, 0.0]])
    floatcsv.write_float_csv(tmp_path / "t.csv", [f"c{i}" for i in range(8)], values, ["x", "y"])
    lines = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "x,1e-05,1e+16,0.30000000000000004,-0.0,5e-324,1.7976931348623157e+308,1.0,123456789.125"
    assert lines[2] == "y,inf,-inf,nan,2.0,0.5,-1e-300,1e+22,0.0"
    assert [float(c) for c in lines[1].split(",")[1:]] == AWKWARD


def test_rejects_bad_shapes(tmp_path):
    with pytest.raises(ValueError):
        floatcsv.write_float_csv(tmp_path / "t.csv", ["a"], np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        floatcsv.write_float_csv(tmp_path / "t.csv", ["d", "a"], np.ones((2, 1)), labels=["x"])
