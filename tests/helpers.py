"""Shared builders for test inputs, and readers for output files."""

from __future__ import annotations

import csv
from datetime import date
from pathlib import Path

import numpy as np

from portlab.analytics import ReturnTable
from portlab.market_data import PriceTable
from portlab.synthetic import weekday_dates


def make_table(closes, tickers=None, start: date = date(2019, 1, 1)) -> PriceTable:
    closes = np.asarray(closes, dtype=float)
    if tickers is None:
        tickers = tuple(f"T{i}" for i in range(closes.shape[1]))
    return PriceTable(weekday_dates(start, closes.shape[0]), tuple(tickers), closes)


def make_returns(values, tickers=None, start: date = date(2019, 1, 1)) -> ReturnTable:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if tickers is None:
        tickers = tuple(f"T{i}" for i in range(values.shape[1]))
    return ReturnTable(weekday_dates(start, values.shape[0]), tuple(tickers), values)


def random_returns(rng: np.random.Generator, n_rows: int, n_assets: int) -> ReturnTable:
    values = rng.normal(0.0005, 0.01, size=(n_rows, n_assets))
    values *= rng.uniform(0.5, 2.0, size=n_assets)
    return make_returns(values)


def random_cov(rng: np.random.Generator, n: int, n_rows: int = 40) -> np.ndarray:
    """Sample covariance of random data: PSD by construction."""
    data = rng.normal(0, 0.01, size=(n_rows, n)) * rng.uniform(0.5, 2.0, size=n)
    return np.atleast_2d(np.cov(data, rowvar=False, ddof=1))


def read_frontier_csv(path: str | Path) -> np.ndarray:
    """Read a frontier CSV back into a (count, 3 + N) float array."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [[float(cell) for cell in row] for row in reader if row]
    return np.array(rows, dtype=float)
