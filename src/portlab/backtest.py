"""Backtesting over weight schedules and cross-method comparison tables.

A schedule is static for equal-weight/MVP/HRP (weights fitted once on
the train split and held) and dynamic for the RL agent. Reports capture
annualized risk, Sharpe, and the compounded cumulative-return curve for
one (method, phase) pair; the comparison table collects test-phase
Sharpe ratios in the fixed column order MVP, HRP, EQUAL, RL.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .analytics import (
    TRADING_DAYS,
    CumulativeCurve,
    ReturnTable,
    aligned_weights,
    cumulative_returns,
    sharpe_ratio,
)
from .errors import EmptyScheduleError, PortlabError
from .mvp import Portfolio

METHOD_ORDER = ("MVP", "HRP", "EQUAL", "RL")


@dataclass(frozen=True)
class WeightSchedule:
    """Per-date weight rows, each on the unit simplex."""

    dates: tuple[date, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != len(self.dates):
            raise ValueError("weights must be one row per date")
        if np.any(weights < 0) or not np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-9:
            raise ValueError("every schedule row must lie on the simplex")
        weights.setflags(write=False)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class BacktestReport:
    """Annualized stats and cumulative curve of one method on one phase."""

    method: str
    phase: str
    dataset: str
    annual_return: float
    annual_risk: float
    risk_free: float
    sharpe: float
    curve: CumulativeCurve

    def __post_init__(self) -> None:
        if self.phase not in ("train", "test"):
            raise ValueError(f"phase must be train or test, got {self.phase!r}")
        if self.annual_risk < 0:
            raise ValueError("annual risk must be >= 0")
        implied = (self.annual_return - self.risk_free) / self.annual_risk
        if not abs(self.sharpe - implied) <= 1e-9:
            raise ValueError("stored Sharpe inconsistent with return/risk/risk-free")


@dataclass(frozen=True)
class ComparisonTable:
    """Test-phase Sharpe per dataset row, columns fixed to METHOD_ORDER."""

    datasets: tuple[str, ...]
    methods: tuple[str, ...]
    cells: tuple[tuple[float | None, ...], ...]


def static_schedule(portfolio: Portfolio, dates: tuple[date, ...]) -> WeightSchedule:
    """Repeat fixed weights over every date."""
    dates = tuple(dates)
    if not dates:
        raise EmptyScheduleError("cannot build a schedule over zero dates")
    weights = np.tile(portfolio.weights, (len(dates), 1))
    return WeightSchedule(dates, weights)


def run_backtest(
    schedule: WeightSchedule,
    returns: ReturnTable,
    risk_free: float,
    trading_days: int = TRADING_DAYS,
    method: str = "",
    phase: str = "test",
    dataset: str = "default",
) -> BacktestReport:
    """Score a weight schedule on a return table.

    Daily portfolio returns come from the schedule rows aligned to the
    return dates; risk is the sample std annualized by sqrt(trading_days),
    return the mean annualized by trading_days, and the curve is the same
    compounding that :func:`portlab.analytics.cumulative_returns` produces.
    """
    weights = aligned_weights(schedule, returns.dates)
    daily = (returns.values * weights).sum(axis=1)
    annual_return = float(daily.mean()) * trading_days
    annual_risk = float(daily.std(ddof=1)) * math.sqrt(trading_days)
    sharpe = sharpe_ratio(annual_return, risk_free, annual_risk)
    curve = cumulative_returns(returns, schedule)
    return BacktestReport(
        method=method,
        phase=phase,
        dataset=dataset,
        annual_return=annual_return,
        annual_risk=annual_risk,
        risk_free=risk_free,
        sharpe=sharpe,
        curve=curve,
    )


def compare_methods(reports: list[BacktestReport]) -> ComparisonTable:
    """Assemble the test-phase Sharpe matrix, rows sorted by dataset label.

    Methods outside METHOD_ORDER are ignored; methods missing for a
    dataset stay None so the CSV renders an empty cell rather than a zero.
    """
    if not reports:
        raise PortlabError("need at least one report to compare")
    by_key: dict[tuple[str, str], float] = {}
    for report in reports:
        if report.phase != "test" or report.method not in METHOD_ORDER:
            continue
        key = (report.dataset, report.method)
        if key in by_key:
            raise PortlabError(
                f"duplicate test report for dataset {report.dataset!r} "
                f"method {report.method!r}"
            )
        by_key[key] = report.sharpe
    datasets = tuple(sorted({dataset for dataset, _ in by_key}))
    if not datasets:
        raise PortlabError("no test-phase reports among the inputs")
    cells = tuple(
        tuple(by_key.get((dataset, method)) for method in METHOD_ORDER)
        for dataset in datasets
    )
    return ComparisonTable(datasets, METHOD_ORDER, cells)


def report_to_json(report: BacktestReport) -> str:
    """Deterministic JSON body: {method, phase, dataset, risk, sharpe, curve, ...}."""
    payload = {
        "method": report.method,
        "phase": report.phase,
        "dataset": report.dataset,
        "annual_return": report.annual_return,
        "risk": report.annual_risk,
        "risk_free": report.risk_free,
        "sharpe": report.sharpe,
        "curve": [
            [d.isoformat(), float(v)]
            for d, v in zip(report.curve.dates, report.curve.values)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> BacktestReport:
    payload = json.loads(text)
    curve = CumulativeCurve(
        tuple(date.fromisoformat(d) for d, _ in payload["curve"]),
        np.array([v for _, v in payload["curve"]], dtype=float),
    )
    return BacktestReport(
        method=payload["method"],
        phase=payload["phase"],
        dataset=payload["dataset"],
        annual_return=float(payload["annual_return"]),
        annual_risk=float(payload["risk"]),
        risk_free=float(payload["risk_free"]),
        sharpe=float(payload["sharpe"]),
        curve=curve,
    )


def write_report(report: BacktestReport, path: str | Path) -> None:
    Path(path).write_text(report_to_json(report), encoding="utf-8")


def read_report(path: str | Path) -> BacktestReport:
    return report_from_json(Path(path).read_text(encoding="utf-8"))


def write_comparison_csv(table: ComparisonTable, path: str | Path) -> None:
    """Comparison matrix CSV: header ``dataset,MVP,HRP,EQUAL,RL``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dataset", *table.methods])
        for dataset, row in zip(table.datasets, table.cells):
            writer.writerow(
                [dataset] + ["" if v is None else repr(float(v)) for v in row]
            )
