"""Command-line surface tying the pipeline together.

Subcommands ``mvp``, ``hrp``, ``rl-train``, ``rl-eval``, and ``compare``
each take ``--config <path>`` and an optional ``--out <dir>``. Every
command fits on the train split and reports on both splits; all outputs
are plot data (CSV/JSON), never images, and are byte-identical across
reruns with the same config and data. Output precedence for the
destination directory is ``--out`` > ``PLAB_OUT`` > config; ``PLAB_SEED``
overrides the configured seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import analytics, backtest, hrp, mvp
from .config import RunConfig, load_config, with_seed
from .errors import ConfigError, ModelFormatError, PortlabError
from .floatcsv import write_float_csv
from .jsonfile import write_json
from .market_data import DateSplit, forward_fill, load_prices, split_by_date
from .rl.agent import evaluate, train, write_training_log
from .rl.env import feature_dim, num_actions
from .rl.network import load_qnetwork, save_qnetwork


def cmd_mvp(config: RunConfig) -> None:
    """Monte-Carlo frontier, min-risk/max-Sharpe portfolios, EW baseline."""
    data = _PreparedData(config)
    out = _ensure_out(config)
    # covariance first: it reports fewer than 2 rows and overflowing squares
    cov = analytics.covariance(data.train_returns)
    cloud = mvp.sample_portfolios(
        analytics.annual_mean(data.train_returns, config.trading_days),
        cov,
        config.mc_samples,
        config.risk_free,
        config.seed,
        config.trading_days,
    )
    mvp.write_frontier_csv(cloud, out / "frontier.csv")
    curve_rows = mvp.efficient_frontier(cloud, config.frontier_bins)
    mvp.write_frontier_rows(cloud, curve_rows, out / "frontier_curve.csv")

    mvp_portfolio = mvp.Portfolio(data.tickers, cloud.weights[mvp.min_risk_row(cloud)])
    write_portfolio_json(mvp_portfolio, "MVP", out / "mvp_weights.json")
    write_portfolio_json(
        mvp.Portfolio(data.tickers, cloud.weights[mvp.max_sharpe_row(cloud)]),
        "MVP_MAX_SHARPE",
        out / "mvp_max_sharpe_weights.json",
    )
    ew = mvp.equal_weight(data.tickers)
    write_portfolio_json(ew, "EQUAL", out / "equal_weights.json")

    _write_reports("MVP", lambda _: mvp_portfolio.weights, data, config, out)
    _write_reports("EQUAL", lambda _: ew.weights, data, config, out)


def cmd_hrp(config: RunConfig) -> None:
    """HRP weights plus the merge tree and weight-bar plot data."""
    data = _PreparedData(config)
    out = _ensure_out(config)
    tree, portfolio = hrp.hrp_weights(data.train_returns)

    write_json(out / "hrp_linkage.json", hrp.linkage_to_records(tree))
    _write_repr_column(
        out / "hrp_weight_bars.csv", "ticker,weight", portfolio.tickers, portfolio.weights
    )
    write_portfolio_json(portfolio, "HRP", out / "hrp_weights.json")

    _write_reports("HRP", lambda _: portfolio.weights, data, config, out)


def cmd_rl_train(config: RunConfig) -> None:
    """Train the DQN agent on the train split; save model and episode log."""
    data = _PreparedData(config)
    out = _ensure_out(config)
    net, log = train(data.train_returns, config.rl, config.trading_days)
    save_qnetwork(net, out / "rl_model.txt")
    write_training_log(log, out / "rl_training_log.csv")


def cmd_rl_eval(config: RunConfig) -> None:
    """Greedy rollout of a trained model on both splits; test curve and reports."""
    data = _PreparedData(config)
    out = _ensure_out(config)
    model_path = out / "rl_model.txt"
    if not model_path.exists():
        raise PortlabError(f"no trained model at {model_path}; run rl-train first")
    net = load_qnetwork(model_path)
    n = len(data.tickers)
    if (net.n_inputs, net.n_outputs) != (feature_dim(n), num_actions(n)):
        raise ModelFormatError(
            f"{model_path}: model maps {net.n_inputs} inputs to {net.n_outputs} "
            f"actions; {n} assets need {feature_dim(n)} and {num_actions(n)}"
        )

    weights, report = _write_reports(
        "RL", lambda r: evaluate(net, r, config.rl, config.trading_days), data, config, out
    )
    _write_repr_column(out / "rl_curve.csv", "date,cumulative_return", report.dates, report.curve)
    header = ["date", *data.tickers]
    write_float_csv(out / "rl_schedule.csv", header, [weights], labels=data.test_returns.dates)


def cmd_compare(config: RunConfig) -> None:
    """Collect previously written reports into the comparison matrix CSV."""
    out = _ensure_out(config)
    paths = sorted(out.glob("report_*.json"))
    if not paths:
        raise PortlabError(f"no report_*.json files found in {out}")
    reports = [backtest.read_report(p) for p in paths]
    rows = backtest.compare_methods(reports)
    backtest.write_comparison_csv(rows, out / "comparison.csv")


class _PreparedData:
    """Cleaned, split return tables shared by every command."""

    def __init__(self, config: RunConfig):
        table = forward_fill(load_prices(config.data))
        split = DateSplit(config.train_end, config.test_start)
        train_table, test_table = split_by_date(table, split)
        self.tickers = table.tickers
        self.train_returns = analytics.simple_returns(train_table)
        self.test_returns = analytics.simple_returns(test_table)
        self.dataset = Path(config.data).stem


def _ensure_out(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_reports(
    method: str,
    weights_for: Callable[[analytics.ReturnTable], np.ndarray],
    data: _PreparedData,
    config: RunConfig,
    out: Path,
) -> tuple[np.ndarray, backtest.BacktestReport]:
    """Score ``weights_for(returns)`` on the train then the test split.

    The weights are one ``(N,)`` row held on every date (the static
    methods return their portfolio's weights whatever the table) or one
    ``(T, N)`` row per return row (the RL agent's rollout). Writes
    ``report_<method>_<phase>.json`` for each split and returns the
    test-phase weights and report.
    """
    for phase, returns in (("train", data.train_returns), ("test", data.test_returns)):
        weights = weights_for(returns)
        report = backtest.run_backtest(
            weights,
            returns,
            config.risk_free,
            config.trading_days,
            method=method,
            phase=phase,
            dataset=data.dataset,
        )
        backtest.write_report(report, out / f"report_{method}_{phase}.json")
    return weights, report


def write_portfolio_json(portfolio: mvp.Portfolio, method: str, path: Path) -> None:
    payload = {
        "method": method,
        "tickers": list(portfolio.tickers),
        "weights": [float(w) for w in portfolio.weights],
    }
    write_json(path, payload)


def _write_repr_column(path: Path, header: str, labels: Iterable, values: Iterable) -> None:
    """``header``, then one ``label,repr(value)`` line per row.

    Labels are formatted by ``str`` (ISO for a date). The values are numpy
    scalars, so cells read ``np.float64(...)``: the bytes that
    perfbench/digests.json records for rl_curve.csv and hrp_weight_bars.csv.
    """
    lines = [header]
    lines += [f"{label},{v!r}" for label, v in zip(labels, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_COMMANDS = {
    "mvp": cmd_mvp,
    "hrp": cmd_hrp,
    "rl-train": cmd_rl_train,
    "rl-eval": cmd_rl_eval,
    "compare": cmd_compare,
}


def _load_and_override(config_path: Path, out_flag: Path | None) -> RunConfig:
    config = load_config(config_path)
    seed_env = os.environ.get("PLAB_SEED")
    if seed_env is not None:
        try:
            seed = int(seed_env)
        except ValueError:
            raise ConfigError(f"PLAB_SEED must be an integer, got {seed_env!r}") from None
        try:
            config = with_seed(config, seed)
        except ValueError as exc:
            raise ConfigError(f"PLAB_SEED: {exc}") from None
    out_dir = out_flag if out_flag is not None else os.environ.get("PLAB_OUT")
    if out_dir is not None:
        config = replace(config, out_dir=Path(out_dir))
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="portlab",
        description="portfolio optimization and backtesting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", type=Path, required=True, help="run config file")
        p.add_argument("--out", type=Path, default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        config = _load_and_override(args.config, args.out)
        _COMMANDS[args.command](config)
    # MemoryError: an allocation the config asks for, e.g. a huge replay_capacity
    except (PortlabError, OSError, MemoryError) as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
