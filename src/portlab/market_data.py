"""Close-price table loading, cleaning, and train/test splitting.

The file format is a plain CSV with header ``date,TICK1,TICK2,...``,
``YYYY-MM-DD`` dates, decimal close prices, and empty fields for missing
values. Anything non-numeric in a price cell is a hard parse error;
that includes what ``float`` would also read, such as ``1_000`` or
non-ASCII digits: a cell is read by :mod:`~portlab.numtext`'s rule.
Rows are parsed in blocks of about ``_PARSE_CELLS`` price cells: each
block's cells become one float array, checked with array operations,
and only a block that fails a check is walked row by row, to report its
first bad cell with the row number.

The ``csv`` module's default field limit of 131,072 characters stays:
no price or ticker comes near it. A longer cell, like any other text
the ``csv`` module cannot read, is a :class:`PriceParseError` naming the
file and the line.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from itertools import islice
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import (
    DateOrderError,
    PriceParseError,
    SchemaError,
    SplitError,
    UnfillableError,
)
from .numtext import is_plain, read_date, read_dates, read_float

# price cells parsed per block: one block's cells are held as strings at a time
_PARSE_CELLS = 1 << 12


@dataclass(frozen=True)
class PriceTable:
    """Dated close-price matrix; ``closes[t, i]`` is ticker ``i`` on day ``t``.

    Missing cells are NaN until :func:`forward_fill` removes them. The
    array is stored read-only so tables can be shared across threads.
    A table is checked where it enters: :func:`load_prices` requires at
    least 2 distinct tickers, 3 rows, increasing dates and prices finite
    and > 0, and :func:`forward_fill` and :func:`split_by_date` keep
    those properties, so the class itself checks nothing.
    """

    dates: tuple[date, ...]
    tickers: tuple[str, ...]
    closes: np.ndarray

    def __post_init__(self) -> None:
        closes = np.array(self.closes, dtype=float)
        closes.setflags(write=False)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(str(t) for t in self.tickers))
        object.__setattr__(self, "closes", closes)

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    def has_missing(self) -> bool:
        return bool(np.isnan(self.closes).any())


@dataclass(frozen=True)
class DateSplit:
    """Boundary dates of a train/test partition (train_end < test_start)."""

    train_end: date
    test_start: date

    def __post_init__(self) -> None:
        if self.train_end >= self.test_start:
            raise SplitError(
                f"train_end {self.train_end} must precede test_start {self.test_start}"
            )


def load_prices(path: str | Path) -> PriceTable:
    """Parse a close-price CSV into a :class:`PriceTable`.

    Empty cells become NaN (missing, to be cleaned later); any other
    non-numeric or non-positive cell raises :class:`PriceParseError`
    with its row number.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = _records(path, _utf8_lines(path, fh))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if not header or header[0].strip() != "date":
            raise SchemaError(f"{path}: first header column must be 'date'")
        tickers = [c.strip() for c in header[1:]]
        if len(tickers) < 2:
            raise SchemaError(f"{path}: need at least 2 ticker columns, got {len(tickers)}")
        seen: set[str] = set()
        # the CSV outputs write tickers unquoted
        for column, ticker in enumerate(tickers, start=2):
            if not ticker:
                raise SchemaError(f"{path}: column {column} has an empty ticker name")
            if any(c in ticker for c in ',"\r\n'):
                raise SchemaError(
                    f"{path}: ticker {ticker!r} holds a comma, quote or line break"
                )
            if ticker in seen:
                raise SchemaError(f"{path}: column {column} repeats ticker {ticker!r}")
            seen.add(ticker)

        dates: list[date] = []
        blocks: list[np.ndarray] = []
        lineno = 2
        while block := list(islice(reader, max(1, _PARSE_CELLS // len(tickers)))):
            last = dates[-1] if dates else None
            parsed = _parse_block(block, len(tickers), last) or _parse_rows(
                path, tickers, block, lineno, last
            )
            dates += parsed[0]
            blocks.append(parsed[1])
            lineno += len(block)

    if len(dates) < 3:
        raise SchemaError(f"{path}: need at least 3 data rows, got {len(dates)}")
    return PriceTable(tuple(dates), tuple(tickers), np.concatenate(blocks))


def _parse_block(
    block: list[list[str]], n_assets: int, last: date | None
) -> tuple[list[date], np.ndarray] | None:
    """Dates and closes of a block of CSV rows, or None if a row must be looked at alone.

    Each cell is stripped, an empty one standing for NaN, and the block's
    cells are converted by one ``np.array(..., dtype=float)`` call, then
    checked with array operations. A block whose text is not plain
    (:func:`~portlab.numtext.is_plain`) goes to :func:`_parse_rows`, as
    does any other defect: there the first bad cell gets its message and
    row number.
    """
    rows = [row for row in block if row]
    if any(len(row) != n_assets + 1 for row in rows):
        return None
    try:
        dates = read_dates([row[0].strip() for row in rows])
        cells = [cell.strip() or "nan" for row in rows for cell in row[1:]]
        if not is_plain("".join(cells)):
            return None
        closes = np.array(cells, dtype=float).reshape(len(rows), n_assets)
    except ValueError:
        return None
    in_order = dates if last is None else [last, *dates]
    if any(b <= a for a, b in zip(in_order, in_order[1:])):
        return None
    missing = np.isnan(closes)
    if not np.all(missing | ((closes > 0) & (closes < math.inf))):
        return None
    # a NaN must come from an empty cell, not from a "nan" in the file
    if any(rows[r][c + 1].strip() for r, c in np.argwhere(missing).tolist()):
        return None
    return dates, closes


def _parse_rows(
    path: Path, tickers: list[str], block: list[list[str]], first: int, last: date | None
) -> tuple[list[date], np.ndarray]:
    """Parse a block row by row, numbering rows from ``first``; raise at the first bad cell."""
    dates: list[date] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(block, start=first):
        if not row:
            continue
        if len(row) != len(tickers) + 1:
            raise PriceParseError(
                f"{path}: row {lineno}: expected {len(tickers) + 1} cells, got {len(row)}"
            )
        try:
            d = read_date(row[0].strip())
        except ValueError:
            raise PriceParseError(f"{path}: row {lineno}: malformed date {row[0]!r}") from None
        previous = dates[-1] if dates else last
        if previous is not None and d <= previous:
            raise DateOrderError(f"{path}: row {lineno}: date {d} not after {previous}")
        cells: list[float] = []
        for ticker, cell in zip(tickers, row[1:]):
            cell = cell.strip()
            if cell == "":
                cells.append(math.nan)
                continue
            try:
                value = read_float(cell)
            except ValueError:
                raise PriceParseError(
                    f"{path}: row {lineno}: non-numeric price {cell!r} for {ticker}"
                ) from None
            if not math.isfinite(value) or value <= 0:
                raise PriceParseError(
                    f"{path}: row {lineno}: price {cell!r} for {ticker} "
                    "must be finite and > 0"
                )
            cells.append(value)
        dates.append(d)
        rows.append(cells)
    return dates, np.array(rows, dtype=float).reshape(len(rows), len(tickers))


def _records(path: Path, lines: Iterator[str]) -> Iterator[list[str]]:
    """CSV records of ``lines``; a ``csv.Error`` raises :class:`PriceParseError` naming ``path``."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise PriceParseError(f"{path}: line {reader.line_num}: {exc}") from None


def _utf8_lines(path: Path, fh: TextIO) -> Iterator[str]:
    """Lines of ``fh``; an invalid UTF-8 byte raises :class:`PriceParseError` naming ``path``."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise PriceParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_prices(table: PriceTable, path: str | Path) -> None:
    """Write a table back to CSV (missing cells as empty fields, LF endings)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", *table.tickers])
        for d, row in zip(table.dates, table.closes):
            writer.writerow(
                [d.isoformat()] + ["" if math.isnan(v) else repr(float(v)) for v in row]
            )


def forward_fill(table: PriceTable) -> PriceTable:
    """Replace every missing cell with the most recent prior value of its ticker."""
    closes = table.closes
    first_missing = np.isnan(closes[0])
    if first_missing.any():
        bad = [t for t, m in zip(table.tickers, first_missing) if m]
        raise UnfillableError(
            f"missing value in first row for ticker(s): {', '.join(bad)}"
        )
    if not table.has_missing():
        return table
    missing = np.isnan(closes)
    row_idx = np.where(missing, 0, np.arange(table.n_rows)[:, None])
    np.maximum.accumulate(row_idx, axis=0, out=row_idx)
    filled = closes[row_idx, np.arange(table.n_assets)[None, :]]
    return PriceTable(table.dates, table.tickers, filled)


def split_by_date(table: PriceTable, split: DateSplit) -> tuple[PriceTable, PriceTable]:
    """Partition rows into train (date <= train_end) and test (date >= test_start).

    The dates are strictly increasing, so train is a prefix and test a suffix.
    """
    n_train = bisect_right(table.dates, split.train_end)
    first_test = bisect_left(table.dates, split.test_start)
    n_test = table.n_rows - first_test
    if n_train < 3 or n_test < 3:
        raise SplitError(
            f"split {split.train_end}/{split.test_start} leaves a partition below "
            f"3 rows (train={n_train}, test={n_test})"
        )
    train = PriceTable(table.dates[:n_train], table.tickers, table.closes[:n_train])
    test = PriceTable(table.dates[first_test:], table.tickers, table.closes[first_test:])
    return train, test
