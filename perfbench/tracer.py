"""In-process traced pipeline: spans around calls into each portlab layer.

Spans (name, start, end, parent) are kept in memory and written out by
the caller. Each public function is wrapped in the namespace where the
calling code looks it up (``portlab.rl.agent.env_step``, not
``portlab.rl.env.env_step``), and every original is restored afterwards.
A layer's self time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import COMMANDS
from pipeline import Proc

# layers reported as call count plus self time
FUNCTION_LAYERS = (
    "market_data.load_prices",
    "analytics.correlation_values",
    "rl.env.env_step",
    "rl.env.state_features",
    "rl.network.qnet_forward",
    "rl.network.td_targets",
    "rl.network.qnet_train_step",
    "rl.network.save_qnetwork",
    "rl.network.load_qnetwork",
    "rl.agent.replay.push",
    "rl.agent.replay.sample",
    "rl.agent.evaluate",
    "mvp.sample_portfolios",
    "mvp.efficient_frontier",
    "mvp.write_frontier_csv",
    "hrp.codistance",
    "hrp.single_linkage",
    "hrp.quasi_diag_order",
    "hrp.recursive_bisection",
    "backtest.run_backtest",
    "backtest.write_report",
    "backtest.read_report",
    "backtest.compare_methods",
)
# layers reported as self time only: loop glue and each command's own code
SELF_ONLY_LAYERS = ("rl.agent.train",) + tuple(f"cli.{c}" for c in COMMANDS)
COUNTERS = {
    "rl.network.save_qnetwork.bytes": "bytes",
    "rl.network.load_qnetwork.bytes": "bytes",
    "rl.agent.replay.evictions": "count",
    "mvp.write_frontier_csv.bytes": "bytes",
    "hrp.codistance.bytes_computed": "bytes",
    "backtest.write_report.bytes": "bytes",
}
DISTINCT_RATIO = "rl.env.feature_windows.distinct_ratio"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced pass yields, with its unit."""
    units = {}
    for name in FUNCTION_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY_LAYERS:
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units[DISTINCT_RATIO] = "ratio"
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.windows_computed = 0
        self.distinct_windows: set[bytes] = set()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(name, self.clock(), math.nan, self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield
        finally:
            span.end = self.clock()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        """``fn`` inside a span; hooks see the positional args, outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = {}
        own: dict[str, float] = {}
        for span, seconds in zip(self.spans, self_times(self.spans)):
            calls[span.name] = calls.get(span.name, 0) + 1
            own[span.name] = own.get(span.name, 0.0) + seconds
        metrics: dict[str, float] = {}
        for name in FUNCTION_LAYERS:
            metrics[f"{name}.calls"] = calls.get(name, 0)
            metrics[f"{name}.self_s"] = own.get(name, 0.0)
        for name in SELF_ONLY_LAYERS:
            metrics[f"{name}.self_s"] = own.get(name, 0.0)
        metrics.update(self.counts)
        metrics[DISTINCT_RATIO] = (
            len(self.distinct_windows) / self.windows_computed if self.windows_computed else 0.0
        )
        return metrics


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(kids):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def _file_bytes(key: str, arg: int):
    def hook(tracer: Tracer, args: tuple) -> None:
        tracer.counts[key] += Path(args[arg]).stat().st_size

    return hook


def _window_seen(tracer: Tracer, args: tuple) -> None:
    tracer.windows_computed += 1
    tracer.distinct_windows.add(hashlib.sha1(np.ascontiguousarray(args[0])).digest())


def _eviction(tracer: Tracer, args: tuple) -> None:
    buffer = args[0]
    if len(buffer) >= buffer.capacity:
        tracer.counts["rl.agent.replay.evictions"] += 1


def _codistance_bytes(tracer: Tracer, args: tuple) -> None:
    tracer.counts["hrp.codistance.bytes_computed"] += len(args[0].tickers) ** 3 * 8


def wrap_points():
    """(owner, attribute, layer name, before hook, after hook) for every wrapped call."""
    import portlab.backtest as backtest
    import portlab.cli as cli
    import portlab.hrp as hrp
    import portlab.mvp as mvp
    import portlab.rl.agent as agent
    import portlab.rl.env as env

    return [
        (cli, "load_prices", "market_data.load_prices", None, None),
        (cli, "train", "rl.agent.train", None, None),
        (cli, "evaluate", "rl.agent.evaluate", None, None),
        (cli, "save_qnetwork", "rl.network.save_qnetwork", None,
         _file_bytes("rl.network.save_qnetwork.bytes", 1)),
        (cli, "load_qnetwork", "rl.network.load_qnetwork",
         _file_bytes("rl.network.load_qnetwork.bytes", 0), None),
        (env, "correlation_values", "analytics.correlation_values", _window_seen, None),
        (agent, "env_step", "rl.env.env_step", None, None),
        (agent, "state_features", "rl.env.state_features", None, None),
        (agent, "qnet_forward", "rl.network.qnet_forward", None, None),
        (agent, "td_targets", "rl.network.td_targets", None, None),
        (agent, "qnet_train_step", "rl.network.qnet_train_step", None, None),
        (agent.ReplayBuffer, "push", "rl.agent.replay.push", _eviction, None),
        (agent.ReplayBuffer, "sample", "rl.agent.replay.sample", None, None),
        (mvp, "sample_portfolios", "mvp.sample_portfolios", None, None),
        (mvp, "efficient_frontier", "mvp.efficient_frontier", None, None),
        (mvp, "write_frontier_csv", "mvp.write_frontier_csv", None,
         _file_bytes("mvp.write_frontier_csv.bytes", 1)),
        (hrp, "codistance", "hrp.codistance", _codistance_bytes, None),
        (hrp, "single_linkage", "hrp.single_linkage", None, None),
        (hrp, "quasi_diag_order", "hrp.quasi_diag_order", None, None),
        (hrp, "recursive_bisection", "hrp.recursive_bisection", None, None),
        (backtest, "run_backtest", "backtest.run_backtest", None, None),
        (backtest, "write_report", "backtest.write_report", None,
         _file_bytes("backtest.write_report.bytes", 1)),
        (backtest, "read_report", "backtest.read_report", None, None),
        (backtest, "compare_methods", "backtest.compare_methods", None, None),
    ]


@contextmanager
def installed(tracer: Tracer, points):
    """Swap in the wrappers; put every original back on exit."""
    saved = []
    try:
        for owner, attr, name, before, after in points:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, before, after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_in_process(config: Path, out_dir: Path, tracer: Tracer | None = None):
    """The five commands through ``portlab.cli.main`` in this process.

    Returns the pass's wall time and (command, :class:`Proc`) pairs whose
    stderr holds the command's diagnostics or the escaped traceback.
    """
    import portlab.cli as cli

    out_dir.mkdir(parents=True)
    procs = []
    points = wrap_points() if tracer is not None else []
    start = time.perf_counter()
    with installed(tracer, points):
        for command in COMMANDS:
            err = io.StringIO()
            t0 = time.perf_counter()
            with tracer.span(f"cli.{command}") if tracer is not None else nullcontext():
                try:
                    with redirect_stderr(err):
                        code = cli.main([command, "--config", str(config), "--out", str(out_dir)])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    code = 1
                    err.write(traceback.format_exc())
            procs.append((command, Proc(time.perf_counter() - t0, 0, code, err.getvalue())))
    return time.perf_counter() - start, procs

