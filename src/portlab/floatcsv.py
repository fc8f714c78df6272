"""One writer for CSV tables of floats.

Every cell is Python's shortest round-trip ``repr`` of the float, so a
table read back with ``float()`` gives the same values bit for bit. Rows
are formatted from ``ndarray.tolist()`` in blocks, so neither the whole
text nor one Python float per cell is held at once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

_BLOCK = 1024  # rows formatted and written per chunk


def write_float_csv(
    path: str | Path,
    header: Sequence[str],
    values: np.ndarray,
    labels: Sequence[str] | None = None,
) -> None:
    """Write ``header`` and one line per row of the 2-D ``values``.

    ``labels``, when given, holds one leading cell per row (for example
    ISO dates); ``header`` then names that column too. Lines end in
    ``\\n`` and cells are never quoted.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be a 2-D table, got shape {values.shape}")
    if labels is not None and len(labels) != values.shape[0]:
        raise ValueError("need one label per row")
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, values.shape[0], _BLOCK):
            rows = values[start : start + _BLOCK].tolist()
            lines = [",".join(map(repr, row)) for row in rows]
            if labels is not None:
                block_labels = labels[start : start + _BLOCK]
                lines = [f"{label},{line}" for label, line in zip(block_labels, lines)]
            fh.write("\n".join(lines) + "\n")
