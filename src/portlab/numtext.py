"""The one grammar for a number or a date written in an input file or variable.

``int()`` and ``float()`` also read ``_`` separators, non-ASCII digits
and surrounding whitespace (``2_00``, ``٢٠٠``, ``" +7 "``). Numeric text
here must be ASCII, hold no ``_`` and start and end with no whitespace;
then ``int()`` or ``float()`` reads it. The config values, ``PLAB_SEED``,
a saved model and the price cells all follow this rule.

``date.fromisoformat`` reads more forms on Python 3.11 than on 3.10: the
basic ``20190503`` and the week dates ``2019-W18-5`` too. A date here is
``YYYY-MM-DD`` alone, on every interpreter; the config's dates, the
price rows' dates and a saved report's dates follow this rule.
"""

from __future__ import annotations

from datetime import date


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


def read_date(text: str) -> date:
    """``date.fromisoformat(text)`` of ``YYYY-MM-DD`` text; raises ``ValueError`` for any other."""
    if len(text) != 10 or text[4] != "-" or text[7] != "-" or not text.isascii():
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def read_dates(texts: list[str]) -> list[date]:
    """:func:`read_date` of each text; the form of all of them is checked at once.

    A price table or a report holds thousands of dates, and a Python call
    per text would cost more than ``date.fromisoformat`` itself. So the
    lengths are read in one ``map``, the ``-`` positions and ASCII are
    checked on the joined text, and only a list that fails goes text by
    text, to raise at the first text of another form.
    """
    joined = "".join(texts)
    n = len(texts)
    if (
        set(map(len, texts)) <= {10}
        and joined.isascii()
        and joined[4::10] == joined[7::10] == "-" * n
    ):
        return list(map(date.fromisoformat, texts))
    return [read_date(text) for text in texts]
