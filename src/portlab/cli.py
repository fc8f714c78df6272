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
from pathlib import Path
from typing import Callable

from . import analytics, backtest, hrp, mvp
from .config import RunConfig, load_config, with_out_dir, with_seed
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

    _write_reports("MVP", _static(mvp_portfolio), data, config, out)
    _write_reports("EQUAL", _static(ew), data, config, out)


def cmd_hrp(config: RunConfig) -> None:
    """HRP weights plus the merge tree and weight-bar plot data."""
    data = _PreparedData(config)
    out = _ensure_out(config)
    tree, portfolio = hrp.hrp_weights(data.train_returns)

    write_json(out / "hrp_linkage.json", hrp.linkage_to_records(tree))
    lines = ["ticker,weight"]
    lines += [f"{t},{w!r}" for t, w in zip(portfolio.tickers, portfolio.weights)]
    (out / "hrp_weight_bars.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_portfolio_json(portfolio, "HRP", out / "hrp_weights.json")

    _write_reports("HRP", _static(portfolio), data, config, out)


def cmd_rl_train(config: RunConfig) -> None:
    """Train the DQN agent on the train split; save model and episode log."""
    data = _PreparedData(config)
    out = _ensure_out(config)
    net, log = train(data.train_returns, config.rl)
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

    schedule, report = _write_reports(
        "RL", lambda returns: evaluate(net, returns, config.rl), data, config, out
    )
    _write_curve_csv(report.curve, out / "rl_curve.csv")
    _write_schedule_csv(schedule, data.tickers, out / "rl_schedule.csv")


def cmd_compare(config: RunConfig) -> None:
    """Collect previously written reports into the comparison matrix CSV."""
    out = _ensure_out(config)
    paths = sorted(out.glob("report_*.json"))
    if not paths:
        raise PortlabError(f"no report_*.json files found in {out}")
    reports = [backtest.read_report(p) for p in paths]
    table = backtest.compare_methods(reports)
    backtest.write_comparison_csv(table, out / "comparison.csv")


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


_ScheduleFor = Callable[[analytics.ReturnTable], backtest.WeightSchedule]


def _static(portfolio: mvp.Portfolio) -> _ScheduleFor:
    """Schedule maker holding ``portfolio``'s weights on every date."""
    return lambda returns: backtest.static_schedule(portfolio, returns.dates)


def _write_reports(
    method: str,
    schedule_for: _ScheduleFor,
    data: _PreparedData,
    config: RunConfig,
    out: Path,
) -> tuple[backtest.WeightSchedule, backtest.BacktestReport]:
    """Score ``schedule_for(returns)`` on the train then the test split.

    Writes ``report_<method>_<phase>.json`` for each and returns the
    test-phase schedule and report.
    """
    for phase, returns in (("train", data.train_returns), ("test", data.test_returns)):
        schedule = schedule_for(returns)
        report = backtest.run_backtest(
            schedule,
            returns,
            config.risk_free,
            config.trading_days,
            method=method,
            phase=phase,
            dataset=data.dataset,
        )
        backtest.write_report(report, out / f"report_{method}_{phase}.json")
    return schedule, report


def write_portfolio_json(portfolio: mvp.Portfolio, method: str, path: Path) -> None:
    payload = {
        "method": method,
        "tickers": list(portfolio.tickers),
        "weights": [float(w) for w in portfolio.weights],
    }
    write_json(path, payload)


def _write_curve_csv(curve: analytics.CumulativeCurve, path: Path) -> None:
    lines = ["date,cumulative_return"]
    lines += [f"{d.isoformat()},{v!r}" for d, v in zip(curve.dates, curve.values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_schedule_csv(
    schedule: backtest.WeightSchedule, tickers: tuple[str, ...], path: Path
) -> None:
    dates = [d.isoformat() for d in schedule.dates]
    write_float_csv(path, ["date", *tickers], schedule.weights, labels=dates)


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
            config = with_seed(config, int(seed_env))
        except ValueError:
            raise ConfigError(f"PLAB_SEED must be an integer, got {seed_env!r}") from None
    out_env = os.environ.get("PLAB_OUT")
    if out_env is not None:
        config = with_out_dir(config, Path(out_env))
    if out_flag is not None:
        config = with_out_dir(config, out_flag)
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
    except (PortlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
