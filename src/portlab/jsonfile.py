"""One writer for JSON outputs.

Keys are sorted and indented by two spaces, and the text ends in a
newline, so the same payload always gives the same bytes. NaN and
infinities are not JSON: a payload holding one raises
:class:`~portlab.errors.NonFiniteError` instead of writing ``NaN``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import NonFiniteError


def write_json(path: str | Path, payload: Any) -> None:
    """Write ``payload`` as deterministic JSON; raise before writing if it holds NaN/inf."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        # the payloads are plain trees of dicts, lists, strings and numbers,
        # so the one ValueError json raises for them is an out-of-range float
        raise NonFiniteError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")
