"""Exception types shared across the toolkit.

Every error raised on bad data or bad configuration derives from
:class:`PortlabError`, so the CLI can catch one type and exit with a
one-line diagnostic.
"""


class PortlabError(Exception):
    """Base class for all toolkit errors."""


class PriceParseError(PortlabError):
    """A CSV cell or date could not be parsed; message carries the row number."""


class SchemaError(PortlabError):
    """The CSV header does not match the expected ``date,TICK1,TICK2,...`` shape."""


class DateOrderError(PortlabError):
    """Dates are not strictly increasing."""


class UnfillableError(PortlabError):
    """A ticker starts with a missing price, so forward-fill cannot seed it."""


class SplitError(PortlabError):
    """A train/test split produced an empty or unusably small partition."""


class InsufficientDataError(PortlabError):
    """Fewer rows than an operation's minimum."""


class UndefinedSharpeError(PortlabError):
    """Sharpe ratio requested with zero (or negative) volatility."""


class DivergenceError(PortlabError):
    """Training produced a non-finite loss."""


class AlignmentError(PortlabError):
    """Weight schedule dates are not exactly the return dates."""


class ConfigError(PortlabError):
    """A run-config file is missing a required key or has a bad value."""


class ModelFormatError(PortlabError):
    """A saved model file is malformed or does not fit the configured assets."""


class ReportFormatError(PortlabError):
    """A saved backtest report is not UTF-8 JSON with every field a report needs."""


class NonFiniteError(PortlabError):
    """A return or compounded value computed from valid prices overflows float64."""
