"""One writer for CSV tables of floats.

Every cell is Python's shortest round-trip ``repr`` of the float, so a
table read back with ``float()`` gives the same values bit for bit.

The table is given as column pieces that share rows (a 1-D array is one
column, a 2-D array one column per entry of its second axis), plus an
optional selection of rows. Rows are stacked from the pieces and
formatted from ``ndarray.tolist()`` one block of ``_BLOCK`` rows at a
time, so neither the stacked table, the whole text nor one Python float
per cell is held at once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

_BLOCK = 256  # rows stacked, formatted and written per chunk


def write_float_csv(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[np.ndarray],
    labels: Sequence | None = None,
    rows: np.ndarray | slice | None = None,
) -> None:
    """Write ``header`` and one line per selected row of the column pieces.

    ``columns`` are 1-D or 2-D arrays with the same number of rows, laid
    side by side in order. ``rows``, when given, selects and orders the
    rows written (an index array or a slice); by default every row is.
    ``labels``, when given, holds one leading cell per written row,
    formatted by ``str`` (ISO for a date); ``header`` then names that
    column too. Lines end in ``\\n`` and cells are never quoted.
    """
    # a bare 2-D array would iterate as one column piece per row
    if isinstance(columns, np.ndarray):
        columns = []
    pieces = [np.asarray(piece, dtype=float) for piece in columns]
    if not pieces or any(piece.ndim not in (1, 2) for piece in pieces):
        raise ValueError("columns must be a sequence of one or more 1-D or 2-D arrays")
    if len({piece.shape[0] for piece in pieces}) != 1:
        raise ValueError("column pieces must have the same number of rows")
    pieces = [piece[:, None] if piece.ndim == 1 else piece for piece in pieces]
    if rows is None:
        rows = slice(None)
    if isinstance(rows, slice):
        # views, not an index array as long as the table: each block below
        # is then a view too
        pieces = [piece[rows] for piece in pieces]
        rows = None
        n_rows = pieces[0].shape[0]
    else:
        rows = np.asarray(rows, dtype=np.intp)
        n_rows = rows.shape[0]
    if labels is not None and len(labels) != n_rows:
        raise ValueError("need one label per row")
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK):
            block = slice(start, start + _BLOCK)
            take = block if rows is None else rows[block]
            stacked = np.hstack([piece[take] for piece in pieces])
            lines = [",".join(map(repr, row)) for row in stacked.tolist()]
            if labels is not None:
                lines = [f"{label},{line}" for label, line in zip(labels[block], lines)]
            fh.write("\n".join(lines) + "\n")
