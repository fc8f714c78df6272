"""Run the five-command CLI pipeline the way users do: one fresh process per
command, one at a time, timed from spawn to exit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import COMMANDS, OutputChecker, dir_digest

TRACEBACK = "Traceback (most recent call last)"

SETUP_SNIPPET = """
import sys
import portlab.cli
from portlab import analytics
from portlab.config import load_config
from portlab.market_data import DateSplit, forward_fill, load_prices, split_by_date
config = load_config(sys.argv[1])
table = forward_fill(load_prices(config.data))
train, test = split_by_date(table, DateSplit(config.train_end, config.test_start))
analytics.simple_returns(train)
analytics.simple_returns(test)
"""

IMPORT_SNIPPET = "import portlab.cli"


@dataclass
class Proc:
    seconds: float
    peak_rss_bytes: int
    exit_code: int
    stderr: str


@dataclass
class CommandResult:
    command: str
    proc: Proc
    exit_problems: list[str]  # non-zero exit or traceback
    output_problems: list[str]  # failed correctness checks on its outputs

    @property
    def failed(self) -> bool:
        return bool(self.exit_problems or self.output_problems)


@dataclass
class PipelineRun:
    seconds: float
    commands: list[CommandResult]
    digest: str
    output_bytes: int


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict[str, str], cwd: Path, log: Path) -> Proc:
    """Run one child to completion; wall time and peak RSS come from wait4."""
    with log.open("w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    # ru_maxrss is in KiB on Linux
    return Proc(seconds, usage.ru_maxrss * 1024, proc.returncode, stderr)


def command_problems(proc: Proc) -> list[str]:
    """A command fails on a traceback or a non-zero exit, ``error:`` line or not."""
    problems = []
    if TRACEBACK in proc.stderr:
        problems.append("traceback: " + proc.stderr.strip().splitlines()[-1])
    elif proc.exit_code != 0:
        last = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        problems.append(f"exit {proc.exit_code}: {last[0]}")
    return problems


def command_argv(command: str, config: Path, out_dir: Path) -> list[str]:
    return [sys.executable, "-m", "portlab.cli", command,
            "--config", str(config), "--out", str(out_dir)]


def run_pipeline(root: Path, config: Path, out_dir: Path, checker: OutputChecker) -> PipelineRun:
    """All five commands in order into a fresh ``out_dir``; later ones run even if one fails."""
    env = child_env(root)
    out_dir.mkdir(parents=True)
    log = out_dir.parent / (out_dir.name + ".stderr")
    procs = []
    start = time.perf_counter()
    for command in COMMANDS:
        procs.append(spawn(command_argv(command, config, out_dir), env, root, log))
    seconds = time.perf_counter() - start
    return collect(seconds, list(zip(COMMANDS, procs)), out_dir, checker)


def collect(seconds: float, procs: list[tuple[str, Proc]], out_dir: Path,
            checker: OutputChecker) -> PipelineRun:
    """Judge each (command, process) and digest what ``out_dir`` holds afterwards."""
    results = []
    for command, proc in procs:
        # one wording per failure across repetitions, whatever their out_dir
        proc.stderr = proc.stderr.replace(str(out_dir), "<out>")
        exit_problems = command_problems(proc)
        output_problems = [] if exit_problems else checker.problems(command, out_dir)
        results.append(CommandResult(command, proc, exit_problems, output_problems))
    digest, output_bytes = dir_digest(out_dir)
    return PipelineRun(seconds, results, digest, output_bytes)


def time_snippet(root: Path, snippet: str, args: list[str], log: Path) -> Proc:
    """A fresh interpreter running ``snippet``: start-up plus the snippet's work."""
    return spawn([sys.executable, "-c", snippet, *args], child_env(root), root, log)
