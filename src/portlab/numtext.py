"""The one grammar for a number written in an input file or variable.

``int()`` and ``float()`` also read ``_`` separators, non-ASCII digits
and surrounding whitespace (``2_00``, ``٢٠٠``, ``" +7 "``). Numeric text
here must be ASCII, hold no ``_`` and start and end with no whitespace;
then ``int()`` or ``float()`` reads it. The config values, ``PLAB_SEED``,
a saved model and the price cells all follow this rule.
"""

from __future__ import annotations


def is_plain(text: str) -> bool:
    """Whether ``text`` is ASCII with no ``_`` and no whitespace at either end."""
    return text.isascii() and "_" not in text and text == text.strip()


def read_int(text: str) -> int:
    """``int(text)`` of plain text; raises ``ValueError`` for any other."""
    if not is_plain(text):
        raise ValueError(f"not a plain ASCII integer: {text!r}")
    return int(text)


def read_float(text: str) -> float:
    """``float(text)`` of plain text; raises ``ValueError`` for any other."""
    if not is_plain(text):
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return float(text)
