"""One writer for CSV tables of floats.

Every cell is Python's shortest round-trip ``repr`` of the float, so a
table read back with ``float()`` gives the same values bit for bit.

The table is one 1-D array (one column) or 2-D array (one column per
entry of its second axis). It is formatted from ``ndarray.tolist()`` one
block of ``_BLOCK`` rows at a time, and a block of an array is a view,
so neither a copy of the table, the whole text nor one Python float per
cell is held at once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

_BLOCK = 256  # rows formatted and written per chunk


def write_float_csv(
    path: str | Path,
    header: Sequence[str],
    table: np.ndarray,
    labels: Sequence | None = None,
) -> None:
    """Write ``header`` and one line per row of ``table``, a 1-D or 2-D float array.

    ``labels``, when given, holds one leading cell per row, formatted by
    ``str`` (ISO for a date); ``header`` then names that column too.
    Lines end in ``\\n`` and cells are never quoted.
    """
    if table.ndim == 1:
        table = table[:, None]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], _BLOCK):
            block = slice(start, start + _BLOCK)
            lines = [",".join(map(repr, row)) for row in table[block].tolist()]
            if labels is not None:
                lines = [f"{label},{line}" for label, line in zip(labels[block], lines)]
            fh.write("\n".join(lines) + "\n")
