"""One writer for JSON outputs.

Keys are sorted and indented by two spaces, and the text ends in a
newline, so the same payload always gives the same bytes: the bytes of
``json.dumps(payload, sort_keys=True, indent=2)``. With an indent,
``json.dumps`` leaves its C encoder for a pure-Python one, so the text
is built here with joins instead, from the pieces ``json`` uses: string
keys and values through ``encode_basestring_ascii``, ints and floats
(subclasses included) through ``int.__repr__`` and ``float.__repr__``.
NaN and infinities are not JSON: a payload holding one raises
:class:`~portlab.errors.NonFiniteError` instead of writing ``NaN``.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .errors import NonFiniteError


def write_json(path: str | Path, payload: Any) -> None:
    """Write ``payload`` as deterministic JSON; raise before writing if it holds NaN/inf.

    ``payload`` is a tree of dicts with string keys, lists, tuples,
    strings, ints, floats, bools and None.
    """
    try:
        text = _encode(payload, "\n")
    except ValueError as exc:
        raise NonFiniteError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _encode(value: Any, newline: str) -> str:
    """``value`` as JSON text; ``newline`` is the line break plus the current indent.

    The types are tested in order of frequency (a report's curve is pairs
    of strings and floats); ``bool`` is tested before ``int``, its base.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is no string fails in encode_basestring_ascii with a TypeError
        items = [
            f"{encode_basestring_ascii(key)}: {_encode(item, inner)}"
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
