"""Benchmark of the portlab CLI pipeline ``mvp -> hrp -> rl-train -> rl-eval -> compare``.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload demo|wide|long|all --seed 7 --seconds 55 --trace 0

``--trace 0`` runs the pipeline as users do, one fresh ``python -m
portlab.cli`` process per command, repeating it for ``--seconds`` and
reporting medians of the end-to-end metrics. ``--trace 1`` runs the
pipeline in this process with spans around every layer call and reports
the per-layer metrics. Both check the outputs (see checks.py) and print
a human-readable block, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Inputs, temporary
outputs and a full record of each run (spans included) go under
``.perfbench/`` in the checkout. README.md documents every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import statistics
import sys
import time
from pathlib import Path

from checks import COMMANDS, OutputChecker
from pipeline import (
    IMPORT_SNIPPET,
    SETUP_SNIPPET,
    PipelineRun,
    child_env,
    collect,
    command_argv,
    run_pipeline,
    spawn,
    time_snippet,
)
from workloads import WORKLOADS

E2E_UNITS = {
    "pipeline_s": "s",
    **{f"{c.replace('-', '_')}_s": "s" for c in COMMANDS},
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
SNIPPET_SAMPLES = 5  # fresh interpreters per run for setup_s / startup.import_s
SHORT_SHARE = 1 / 3  # commands under this share of the first pass re-run after each pass
REQUIRED = ("src/portlab/cli.py", "configs/demo.cfg", "data/synthetic_prices.csv")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a portlab checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # generated configs name their price file relative to the checkout

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        work = scratch / f"{name}-seed{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace, work)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        judge_digest(record, recorded.get(name, {}).get(str(args.seed)))
        spans = record.pop("spans", None)
        out = scratch / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({**record, "spans": spans}, indent=1) + "\n", encoding="utf-8")
        print_record(record)
        records[name] = record

    if len(records) == 1:
        (record,) = records.values()
        metrics = record["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in records.items() for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def prepare(name: str, seed: int, work: Path) -> dict:
    """Build the workload's inputs in a child process; see workloads.py."""
    argv = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(work)]
    done = subprocess.run(argv, env=child_env(ROOT), cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"building the {name} inputs failed:\n{done.stderr}")
    return json.loads(done.stdout)


def run_workload(name: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    inputs = prepare(name, seed, work)
    config = Path(inputs["config"])
    checker = OutputChecker()
    snippets = Snippets(work / "snippet.stderr")
    # the first interpreter also writes the bytecode cache; it is not timed
    snippets.run(IMPORT_SNIPPET, [])
    if trace:
        import_s = [snippets.run(IMPORT_SNIPPET, []) for _ in range(SNIPPET_SAMPLES)]
        runs, untraced, traced, tracers = traced_passes(config, work, checker, seconds)
        metrics = median_metrics([t.layer_metrics() for t in tracers])
        metrics["startup.import_s"] = statistics.median(import_s)
        metrics["market_data.input_bytes"] = Path(inputs["prices"]).stat().st_size
        metrics["trace.overhead_s"] = (statistics.median(r.seconds for r in traced)
                                       - statistics.median(r.seconds for r in untraced))
        units = per_layer_units()
        repetitions = len(traced)
    else:
        setup_s = [snippets.run(SETUP_SNIPPET, [str(config)]) for _ in range(SNIPPET_SAMPLES)]
        passes, reruns = measure(config, work, checker, seconds, setup_s, snippets)
        runs = passes + reruns
        metrics = end_to_end(passes, reruns)
        metrics["setup_s"] = statistics.median(setup_s)
        units = E2E_UNITS
        repetitions = len(passes)

    problems = list(snippets.problems)
    digests = sorted({r.digest for r in runs})
    if len(digests) > 1:
        problems.append(f"outputs differ between repetitions: {len(digests)} digests")
    failures: dict[str, int] = {}
    for c in (c for r in runs for c in r.commands):
        problems.extend(f"{c.command}: {p}" for p in c.output_problems)
        for p in c.exit_problems + c.output_problems:
            failures[f"{c.command}: {p}"] = failures.get(f"{c.command}: {p}", 0) + 1
    attempted = sum(len(r.commands) for r in runs)
    failed = sum(c.failed for r in runs for c in r.commands)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "inputs_sha256": inputs["sha256"],
        "machine": inputs["machine"],
        "repetitions": repetitions,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "failures": failures,
        "digest": digests[0],
        "problems": sorted(set(problems)),
        "notes": sorted(checker.notes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "raw": [{"seconds": r.seconds, "digest": r.digest, "output_bytes": r.output_bytes,
                 "commands": [[c.command, c.proc.seconds, c.proc.peak_rss_bytes]
                              for c in r.commands]}
                for r in runs],
    }
    if trace:
        record["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracers[-1].spans]
    else:
        record["setup_s_samples"] = setup_s
    return record


class Snippets:
    """Times fresh interpreters; a failing one is a problem of the run."""

    def __init__(self, log: Path):
        self.log = log
        self.problems: list[str] = []

    def run(self, snippet: str, args: list[str]) -> float:
        proc = time_snippet(ROOT, snippet, args, self.log)
        if proc.exit_code != 0:
            self.problems.append(f"snippet exit {proc.exit_code}: {proc.stderr.strip()[-300:]}")
        return proc.seconds


def measure(config: Path, work: Path, checker: OutputChecker, seconds: float,
            setup_s: list[float], snippets: Snippets) -> tuple[list[PipelineRun], list[PipelineRun]]:
    """Whole passes while the next one fits in ``seconds``; returns (passes, re-runs).

    After each pass, every short run (a command taking under ``SHORT_SHARE``
    of the first pass, and the set-up snippet) runs once more. Short runs
    are mostly interpreter start-up and have the largest relative noise;
    re-running them after every pass spreads their extra samples over the
    whole run, so a slow spell of the host weighs on them no more than on
    the long commands. They re-run on the pass's complete outputs, which
    each of them rewrites byte for byte; that directory's digest is checked
    like a pass.
    """
    start = time.perf_counter()
    env = child_env(ROOT)
    passes: list[PipelineRun] = []
    reruns: list[PipelineRun] = []
    short: list[str] = []
    lap = 0.0  # the last pass with its re-runs
    while not passes or time.perf_counter() - start + lap <= seconds:
        lap_start = time.perf_counter()
        out = work / f"out{len(passes)}"
        passes.append(run_pipeline(ROOT, config, out, checker))
        if len(passes) == 1:
            short = [c.command for c in passes[0].commands
                     if c.proc.seconds < SHORT_SHARE * passes[0].seconds]
        extra = [(name, spawn(command_argv(name, config, out), env, ROOT, snippets.log))
                 for name in short]
        setup_s.append(snippets.run(SETUP_SNIPPET, [str(config)]))
        reruns.append(collect(0.0, extra, out, checker))
        shutil.rmtree(out)
        lap = time.perf_counter() - lap_start
    return passes, reruns


def traced_passes(config: Path, work: Path, checker: OutputChecker, seconds: float):
    """An untimed warm-up pass, then untraced and traced in-process passes in turn.

    The warm-up takes the first-touch costs (heap growth, first warnings)
    that would otherwise land on whichever pass runs first and skew
    ``trace.overhead_s``. Returns (every pass, untraced, traced, tracers).
    """
    from tracer import Tracer, run_in_process

    def one_pass(label: str, tracer: Tracer | None = None) -> PipelineRun:
        out = work / label
        run = collect(*run_in_process(config, out, tracer), out, checker)
        shutil.rmtree(out)
        return run

    runs = [one_pass("warmup")]
    untraced: list[PipelineRun] = []
    traced: list[PipelineRun] = []
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + untraced[-1].seconds + traced[-1].seconds <= seconds:
        untraced.append(one_pass(f"plain{len(untraced)}"))
        tracers.append(Tracer())
        traced.append(one_pass(f"traced{len(traced)}", tracers[-1]))
    return runs + untraced + traced, untraced, traced, tracers


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in passes) for k in passes[0]}


def per_layer_units() -> dict[str, str]:
    from tracer import layer_metric_units

    return {"startup.import_s": "s", "market_data.input_bytes": "bytes",
            **layer_metric_units(), "trace.overhead_s": "s"}


def end_to_end(passes: list[PipelineRun], reruns: list[PipelineRun]) -> dict[str, float]:
    """Medians: pipeline and peak RSS over passes, each command over all its runs."""
    metrics = {"pipeline_s": statistics.median(p.seconds for p in passes)}
    runs = [c for p in passes + reruns for c in p.commands]
    for command in COMMANDS:
        key = f"{command.replace('-', '_')}_s"
        metrics[key] = statistics.median(c.proc.seconds for c in runs if c.command == command)
    metrics["peak_rss_mb"] = statistics.median(
        max(c.proc.peak_rss_bytes for c in p.commands) for p in passes) / 1e6
    metrics["output_mb"] = statistics.median(p.output_bytes for p in passes) / 1e6
    return metrics


def judge_digest(record: dict, recorded: str | None) -> None:
    """A digest recorded for this workload and seed must match; any problem fails the run."""
    record["digest_recorded"] = recorded
    if recorded is not None and recorded != record["digest"]:
        record["problems"].append(f"digest {record['digest']} != recorded {recorded}")
    record["correct"] = not record["problems"]


def print_record(record: dict) -> None:
    mode = "traced in-process" if record["trace"] else "subprocess"
    print(f"== {record['workload']}  seed {record['seed']}  {mode}  "
          f"{record['repetitions']} repetition(s)")
    for name, sha in record["inputs_sha256"].items():
        print(f"input   {name}  sha256 {sha}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{name:42s} {shown:>14s} {metric['unit']}")
    print(f"{'fail_rate':42s} {record['fail_rate']:14.4f} "
          f"({record['failed']} of {record['attempted']} commands failed)")
    for failure, count in sorted(record["failures"].items()):
        print(f"  failed x{count}: {failure}")
    if record["digest_recorded"] is None:
        note = "no digest recorded for this seed"
    else:
        note = "matches recorded" if record["digest_recorded"] == record["digest"] else "MISMATCH"
    print(f"digest  {record['digest']}  ({note})")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for note in record["notes"]:
        print(f"  note (known defect, not a failure): {note}")
    print("verdict " + ("correct" if record["correct"] else "INCORRECT"))


if __name__ == "__main__":
    raise SystemExit(main())
