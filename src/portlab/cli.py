"""Command-line surface tying the pipeline together.

Subcommands ``mvp``, ``hrp``, ``rl-train``, ``rl-eval``, and ``compare``
each take ``--config <path>`` and an optional ``--out <dir>``. Every
command fits on the train split and reports on both splits; all outputs
are plot data (CSV/JSON), never images, and are byte-identical across
reruns with the same config and data. A portfolio is its ``(N,)``
weight row, in the order of the tickers of :class:`_PreparedData`;
:func:`write_portfolio_json` writes the two side by side. Output
precedence for the destination directory is ``--out`` > ``PLAB_OUT`` >
config; ``PLAB_SEED`` overrides the configured seed.

Each process runs one command, and its start-up is a large share of a
short command's time. So this module imports only argparse, the config,
the number readers and the error types; each command imports the layers
it runs when it runs. ``compare`` never loads numpy, ``mvp`` and ``hrp``
never load the agent, and ``hrp`` loads neither :mod:`~portlab.mvp` nor
the CSV writer. Five library functions stay module attributes, called
through this module's globals: ``load_prices``, ``train``, ``evaluate``,
``save_qnetwork`` and ``load_qnetwork``. The benchmark's tracer
(perfbench/tracer.py) wraps them here, in this namespace, so each is a
stand-in that imports its module on the first call.

A command runs OpenBLAS on one thread. The worker thread that numpy's
OpenBLAS otherwise starts busy-waits beside the main thread, and on a
busy host that costs every command more than its parallel products
gain. So before anything imports numpy, this module sets
``OPENBLAS_NUM_THREADS=1``, unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set: a user's own
thread setting wins. The demo outputs are the same bytes under one and
two threads. The cap holds where this module loads before numpy, as
under ``python -m portlab.cli`` and the ``portlab`` script; where numpy
is loaded already, its thread pool stays as it is.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

# OpenBLAS reads its thread count when numpy loads it: cap it first
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import RunConfig, load_config, with_seed
from .errors import ConfigError, ModelFormatError, PortlabError
from .numtext import read_int

if TYPE_CHECKING:
    import numpy as np

    from .analytics import ReturnTable
    from .backtest import BacktestReport


def _lazy(module: str, name: str) -> Callable:
    """A stand-in for ``portlab.<module>.<name>`` that imports the module when called."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


load_prices = _lazy("market_data", "load_prices")
train = _lazy("rl.agent", "train")
evaluate = _lazy("rl.agent", "evaluate")
save_qnetwork = _lazy("rl.network", "save_qnetwork")
load_qnetwork = _lazy("rl.network", "load_qnetwork")


def cmd_mvp(config: RunConfig) -> None:
    """Monte-Carlo frontier, min-risk/max-Sharpe portfolios, EW baseline."""
    from . import analytics, mvp

    data = _PreparedData(config)
    out = _ensure_out(config)
    # covariance first: its overflow is reported before the annual mean's
    cov = analytics.covariance_values(data.train_returns.values, data.tickers)
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

    min_risk = cloud[mvp.min_risk_row(cloud), mvp.FIRST_WEIGHT :]
    write_portfolio_json(data.tickers, min_risk, "MVP", out / "mvp_weights.json")
    write_portfolio_json(
        data.tickers,
        cloud[mvp.max_sharpe_row(cloud), mvp.FIRST_WEIGHT :],
        "MVP_MAX_SHARPE",
        out / "mvp_max_sharpe_weights.json",
    )
    ew = mvp.equal_weight(len(data.tickers))
    write_portfolio_json(data.tickers, ew, "EQUAL", out / "equal_weights.json")

    _write_reports("MVP", lambda _: min_risk, data, config, out)
    _write_reports("EQUAL", lambda _: ew, data, config, out)


def cmd_hrp(config: RunConfig) -> None:
    """HRP weights plus the merge tree and weight-bar plot data."""
    from . import hrp
    from .jsonfile import write_json

    data = _PreparedData(config)
    out = _ensure_out(config)
    tree, weights = hrp.hrp_weights(data.train_returns)

    write_json(out / "hrp_linkage.json", hrp.linkage_to_records(tree))
    _write_repr_column(out / "hrp_weight_bars.csv", "ticker,weight", data.tickers, weights)
    write_portfolio_json(data.tickers, weights, "HRP", out / "hrp_weights.json")

    _write_reports("HRP", lambda _: weights, data, config, out)


def cmd_rl_train(config: RunConfig) -> None:
    """Train the DQN agent on the train split; save model and episode log."""
    from .rl.agent import write_training_log

    data = _PreparedData(config)
    out = _ensure_out(config)
    net, log = train(data.train_returns, config.rl, config.trading_days)
    save_qnetwork(net, out / "rl_model.txt")
    write_training_log(log, out / "rl_training_log.csv")


def cmd_rl_eval(config: RunConfig) -> None:
    """Greedy rollout of a trained model on both splits; test curve and reports."""
    from .floatcsv import write_float_csv
    from .rl.env import feature_dim, num_actions

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
    write_float_csv(out / "rl_schedule.csv", header, weights, labels=data.test_returns.dates)


def cmd_compare(config: RunConfig) -> None:
    """Collect previously written reports into the comparison matrix CSV."""
    from . import backtest

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
        from . import analytics
        from .market_data import DateSplit, forward_fill, split_by_date

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
    weights_for: Callable[[ReturnTable], np.ndarray],
    data: _PreparedData,
    config: RunConfig,
    out: Path,
) -> tuple[np.ndarray, BacktestReport]:
    """Score ``weights_for(returns)`` on the train then the test split.

    The weights are one ``(N,)`` row held on every date (the static
    methods return their portfolio's weights whatever the table) or one
    ``(T, N)`` row per return row (the RL agent's rollout). Writes
    ``report_<method>_<phase>.json`` for each split and returns the
    test-phase weights and report.
    """
    from . import backtest

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


def write_portfolio_json(
    tickers: tuple[str, ...], weights: np.ndarray, method: str, path: Path
) -> None:
    """``{method, tickers, weights}``: one ``(N,)`` weight row, in the order of ``tickers``."""
    from .jsonfile import write_json

    payload = {
        "method": method,
        "tickers": list(tickers),
        "weights": [float(w) for w in weights],
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


def _load_and_override(config_path: Path, out_flag: str | None) -> RunConfig:
    config = load_config(config_path)
    seed_env = os.environ.get("PLAB_SEED")
    if seed_env is not None:
        try:
            seed = read_int(seed_env)
        except ValueError:
            raise ConfigError(f"PLAB_SEED must be an integer, got {seed_env!r}") from None
        try:
            config = with_seed(config, seed)
        except ValueError as exc:
            raise ConfigError(f"PLAB_SEED: {exc}") from None
    if out_flag is not None:
        source, out_dir = "--out", out_flag
    else:
        source, out_dir = "PLAB_OUT", os.environ.get("PLAB_OUT")
    # Path("") is Path("."): an empty value would write into the working directory
    if out_dir == "":
        raise ConfigError(f"{source} must name an output directory, got ''")
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
        # a str, not a Path, so that an empty value can be told from "."
        p.add_argument("--out", default=None, help="output directory override")
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
