"""Correctness checks on the pipeline's output directory.

Each command's expected files must exist; every JSON file must parse
with NaN and Infinity rejected; every weights file (weight JSON, weight
bars, RL schedule, frontier tables) must lie on the simplex. The digest
of a whole output directory lets runs be compared byte for byte.

A weight cell may be numpy's scalar repr, ``np.float64(0.1)``, which
``cli.cmd_hrp`` writes under numpy >= 2 (a known defect, see README.md).
Its value is checked like any other; the file gets a note, not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

COMMANDS = ("mvp", "hrp", "rl-train", "rl-eval", "compare")

EXPECTED = {
    "mvp": (
        "frontier.csv",
        "frontier_curve.csv",
        "mvp_weights.json",
        "mvp_max_sharpe_weights.json",
        "equal_weights.json",
        "report_MVP_train.json",
        "report_MVP_test.json",
        "report_EQUAL_train.json",
        "report_EQUAL_test.json",
    ),
    "hrp": (
        "hrp_linkage.json",
        "hrp_weight_bars.csv",
        "hrp_weights.json",
        "report_HRP_train.json",
        "report_HRP_test.json",
    ),
    "rl-train": ("rl_model.txt", "rl_training_log.csv"),
    "rl-eval": (
        "rl_curve.csv",
        "rl_schedule.csv",
        "report_RL_test.json",
        "report_RL_train.json",
    ),
    "compare": ("comparison.csv",),
}

SIMPLEX_TOL = 1e-9
NUMPY_SCALAR = re.compile(r"np\.float64\((.*)\)")


class CheckError(ValueError):
    """An output file failed a correctness check."""


def strict_json(text: str):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""

    def reject(token: str):
        raise CheckError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def check_simplex(rows, what: str) -> None:
    for i, row in enumerate(rows):
        if not all(math.isfinite(w) and w >= 0.0 for w in row):
            raise CheckError(f"{what} row {i}: weights must be finite and >= 0")
        if abs(math.fsum(row) - 1.0) > SIMPLEX_TOL:
            raise CheckError(f"{what} row {i}: weights sum to {math.fsum(row)!r}, not 1")


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cell(text: str, reprs: list[str]) -> float:
    """A weight cell as a float; a numpy scalar repr is unwrapped and noted in ``reprs``."""
    match = NUMPY_SCALAR.fullmatch(text)
    if match:
        reprs.append(text)
        text = match.group(1)
    return float(text)


def _weight_rows(path: Path, first: str | int, reprs: list[str]):
    """Weight cells of each CSV row, from column ``first`` (a header name or index) on.

    Rows are streamed so the benchmark process stays small: a child's peak RSS as
    reported by ``wait4`` includes the memory of the process that spawned it.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        start = header.index(first) if isinstance(first, str) else first
        for row in reader:
            if row:
                yield [_cell(c, reprs) for c in row[start:]]


def check_file(path: Path) -> str | None:
    """Raise :class:`CheckError` (or ``ValueError``) if one output file's content is wrong.

    Returns a note on a file that passes but holds numpy scalar reprs.
    """
    name = path.name
    reprs: list[str] = []
    if name.endswith(".json"):
        payload = strict_json(path.read_text(encoding="utf-8"))
        if name.endswith("_weights.json"):
            weights = [float(w) for w in payload["weights"]]
            if len(weights) != len(payload["tickers"]):
                raise CheckError(f"{name}: one weight per ticker expected")
            check_simplex([weights], name)
    elif name == "hrp_weight_bars.csv":
        check_simplex([[w for (w,) in _weight_rows(path, 1, reprs)]], name)
    elif name == "rl_schedule.csv":
        check_simplex(_weight_rows(path, 1, reprs), name)
    elif name in ("frontier.csv", "frontier_curve.csv"):
        check_simplex(_weight_rows(path, "w1", reprs), name)
    if reprs:
        return f"{name}: {len(reprs)} cell(s) written as numpy scalar reprs, e.g. {reprs[0]!r}"
    return None


class OutputChecker:
    """Checks a command's outputs, caching verdicts by content hash.

    Repetitions that write the same bytes are checked once; their
    identity is what the run digest then proves. Notes on files that
    passed collect in ``notes``.
    """

    def __init__(self) -> None:
        self._verdicts: dict[str, str | None] = {}
        self.notes: set[str] = set()

    def problems(self, command: str, out_dir: Path) -> list[str]:
        found = []
        for name in EXPECTED[command]:
            path = out_dir / name
            if not path.is_file():
                found.append(f"{name}: missing")
                continue
            key = name + ":" + file_sha256(path)
            if key not in self._verdicts:
                try:
                    note = check_file(path)
                    if note:
                        self.notes.add(f"{command}: {note}")
                    self._verdicts[key] = None
                except (CheckError, ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
                    self._verdicts[key] = f"{name}: {exc}"
            if self._verdicts[key] is not None:
                found.append(self._verdicts[key])
        return found


def dir_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over every file's name and content hash, and the total bytes."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        total += path.stat().st_size
        rel = path.relative_to(out_dir).as_posix()
        h.update(f"{rel}\0{file_sha256(path)}\n".encode())
    return h.hexdigest(), total
