"""Backtesting weight schedules, and cross-method comparison tables.

A schedule is an array of weights: one ``(N,)`` row held on every date
for equal weight, MVP and HRP (fitted once on the train split), or one
``(T, N)`` row per return row for the RL agent. Reports capture
annualized risk, Sharpe, and the compounded cumulative-return curve for
one (method, phase) pair; the comparison table collects test-phase
Sharpe ratios in the fixed column order MVP, HRP, EQUAL, RL.

The report half (:class:`BacktestReport`, :func:`read_report`,
:func:`write_report`, :func:`compare_methods`,
:func:`write_comparison_csv`) needs no numpy, so ``compare``, which reads
saved reports and writes the comparison table, never imports it. Only
:func:`run_backtest` imports the numpy-backed analytics, on its call.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import NonFiniteError, PortlabError, ReportFormatError
from .jsonfile import write_json

if TYPE_CHECKING:
    import numpy as np

    from .analytics import ReturnTable

METHOD_ORDER = ("MVP", "HRP", "EQUAL", "RL")


@dataclass(frozen=True)
class BacktestReport:
    """Annualized stats and cumulative curve (one value per date) of one method on one phase."""

    method: str
    phase: str
    dataset: str
    annual_return: float
    annual_risk: float
    risk_free: float
    sharpe: float
    dates: tuple[date, ...]
    curve: tuple[float, ...]

    def __post_init__(self) -> None:
        curve = tuple(self.curve)
        if len(curve) != len(self.dates):
            raise ValueError("curve values must align with curve dates")
        # a report read back by compare is outside input: a JSON null,
        # string, bool or out-of-range integer is no curve value
        if not all(_finite_real(v) for v in curve):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "curve", curve)
        if self.phase not in ("train", "test"):
            raise ValueError(f"phase must be train or test, got {self.phase!r}")
        if not (isinstance(self.method, str) and isinstance(self.dataset, str)):
            raise ValueError("method and dataset must be strings")
        # the same holds for the scalars; a NaN passes here to fail a check
        # below with its reason
        for name in ("annual_return", "annual_risk", "risk_free", "sharpe"):
            value = getattr(self, name)
            if not (_finite_real(value) or value != value):
                raise ValueError(f"{name} must be a finite number")
        # written as not (x > 0) so that NaN fails
        if not self.annual_risk > 0:
            raise ValueError(f"annual risk must be > 0, got {self.annual_risk!r}")
        implied = (self.annual_return - self.risk_free) / self.annual_risk
        if not abs(self.sharpe - implied) <= 1e-9:
            raise ValueError("stored Sharpe inconsistent with return/risk/risk-free")


def _finite_real(value: object) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def run_backtest(
    weights: np.ndarray,
    returns: ReturnTable,
    risk_free: float,
    trading_days: int,
    method: str,
    phase: str,
    dataset: str,
) -> BacktestReport:
    """Score a weight schedule on a return table.

    Daily portfolio returns and the compounded curve come from
    :func:`portlab.analytics.schedule_returns`, their annual return and
    risk from :func:`portlab.analytics.annualize`. Raises
    :class:`NonFiniteError` if either overflows float64.
    """
    import numpy as np

    from .analytics import annualize, schedule_returns, sharpe_ratio

    daily, curve = schedule_returns(returns, weights)
    with np.errstate(over="ignore", invalid="ignore"):
        annual_return, annual_risk = annualize(daily, trading_days)
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
        dates=returns.dates,
        curve=curve,
    )


def compare_methods(reports: list[BacktestReport]) -> list[tuple[str, tuple[float | None, ...]]]:
    """Assemble the test-phase Sharpe matrix, rows sorted by dataset label.

    Each row is ``(dataset, cells)`` with one cell per METHOD_ORDER entry.
    Methods outside METHOD_ORDER are ignored; methods missing for a
    dataset stay None so the CSV renders an empty cell rather than a zero.
    """
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
    if not by_key:
        raise PortlabError("no test-phase reports among the inputs")
    return [
        (dataset, tuple(by_key.get((dataset, method)) for method in METHOD_ORDER))
        for dataset in sorted({dataset for dataset, _ in by_key})
    ]


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
        "curve": [[d.isoformat(), float(v)] for d, v in zip(report.dates, report.curve)],
    }
    write_json(path, payload)


def read_report(path: str | Path) -> BacktestReport:
    """Inverse of :func:`write_report`.

    Raises :class:`ReportFormatError` naming the file when it is not UTF-8
    JSON, lacks a field, or holds a value :class:`BacktestReport` rejects.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return BacktestReport(
            method=payload["method"],
            phase=payload["phase"],
            dataset=payload["dataset"],
            annual_return=payload["annual_return"],
            annual_risk=payload["risk"],
            risk_free=payload["risk_free"],
            sharpe=payload["sharpe"],
            dates=tuple(date.fromisoformat(d) for d, _ in payload["curve"]),
            curve=[v for _, v in payload["curve"]],
        )
    except KeyError as exc:
        raise ReportFormatError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors too;
        # OverflowError is a JSON integer beyond the float range
        raise ReportFormatError(f"{path}: {exc}") from None


def write_comparison_csv(
    rows: list[tuple[str, tuple[float | None, ...]]], path: str | Path
) -> None:
    """Comparison matrix CSV: header ``dataset,MVP,HRP,EQUAL,RL``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dataset", *METHOD_ORDER])
        for dataset, cells in rows:
            writer.writerow(
                [dataset] + ["" if v is None else repr(float(v)) for v in cells]
            )
