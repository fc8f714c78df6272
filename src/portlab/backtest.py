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

from .analytics import TRADING_DAYS, CumulativeCurve, ReturnTable, schedule_returns, sharpe_ratio
from .errors import NonFiniteError, PortlabError, ReportFormatError
from .jsonfile import write_json
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
        if not (isinstance(self.method, str) and isinstance(self.dataset, str)):
            raise ValueError("method and dataset must be strings")
        # written as not (x > 0) so that NaN fails
        if not self.annual_risk > 0:
            raise ValueError(f"annual risk must be > 0, got {self.annual_risk!r}")
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
    return WeightSchedule(dates, np.tile(portfolio.weights, (len(dates), 1)))


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

    Daily portfolio returns and the compounded curve come from
    :func:`portlab.analytics.schedule_returns`; risk is their sample std
    annualized by sqrt(trading_days), return their mean annualized by
    trading_days. Raises :class:`NonFiniteError` if either overflows float64.
    """
    daily, curve = schedule_returns(returns, schedule)
    with np.errstate(over="ignore", invalid="ignore"):
        annual_return = float(daily.mean()) * trading_days
        annual_risk = float(daily.std(ddof=1)) * math.sqrt(trading_days)
    if not (math.isfinite(annual_return) and math.isfinite(annual_risk)):
        raise NonFiniteError(
            f"annual return or risk of {method} over the {phase} dates overflows float64"
        )
    sharpe = sharpe_ratio(annual_return, risk_free, annual_risk)
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


def write_report(report: BacktestReport, path: str | Path) -> None:
    """Deterministic JSON: {method, phase, dataset, risk, sharpe, curve, ...}."""
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
    write_json(path, payload)


def read_report(path: str | Path) -> BacktestReport:
    """Inverse of :func:`write_report`.

    Raises :class:`ReportFormatError` naming the file when it is not UTF-8
    JSON, lacks a field, or holds a value :class:`BacktestReport` rejects.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
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
    except KeyError as exc:
        raise ReportFormatError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors too
        raise ReportFormatError(f"{path}: {exc}") from None


def write_comparison_csv(table: ComparisonTable, path: str | Path) -> None:
    """Comparison matrix CSV: header ``dataset,MVP,HRP,EQUAL,RL``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dataset", *table.methods])
        for dataset, row in zip(table.datasets, table.cells):
            writer.writerow(
                [dataset] + ["" if v is None else repr(float(v)) for v in row]
            )
