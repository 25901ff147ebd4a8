"""Exception hierarchy shared by all monmin modules."""

__all__ = [
    "CurrencyMismatch",
    "DuplicateCountry",
    "DuplicatePair",
    "EmptySeries",
    "IngestFailure",
    "ItemMismatch",
    "ItemMismatchWarning",
    "MalformedRow",
    "MonMinError",
    "NonMonotoneYears",
    "NonPositiveInput",
    "ShapeMismatch",
    "TooShort",
    "UnknownCurrency",
]


class MonMinError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPositiveInput(MonMinError):
    """A quantity that must be finite and positive (or non-negative) is not."""


class CurrencyMismatch(MonMinError):
    """An operation received values in incompatible currency contexts."""


class ItemMismatch(MonMinError):
    """Two prices that must refer to the same item/unit do not."""


class UnknownCurrency(MonMinError):
    """A currency code could not be resolved against the known set."""


class MalformedRow(MonMinError):
    """A data row could not be parsed (column count, numeric format, ...)."""


class DuplicateCountry(MonMinError):
    """The same country appears twice in an economies file."""


class DuplicatePair(MonMinError):
    """The same (base, quote) pair appears twice in a rate table."""


class NonMonotoneYears(MonMinError):
    """Series years are not strictly increasing."""


class EmptySeries(MonMinError):
    """A series operation needs at least one data point."""


class TooShort(MonMinError):
    """A series operation needs more data points than were given."""


class ShapeMismatch(MonMinError):
    """Data handed to a renderer does not match the table layout."""


class IngestFailure(MonMinError):
    """A file-level load failed; details are in the attached report."""

    def __init__(self, path, report):
        self.path = path
        self.report = report
        super().__init__(f"{path}: {len(report.errors)} error(s)")


class ItemMismatchWarning(UserWarning):
    """Non-fatal variant of ItemMismatch (the computation still runs)."""


#: The input range: a nonzero number read from a file or a flag has an adjusted exponent
#: within ±_BOUND, and a population at most ``_BOUND + 1`` digits.  README derives from it
#: that no figure computed from such inputs leaves the decimal range.
_BOUND = 99999


def _outside(what: str) -> str:
    """The refusal of ``what``, an input past the input range, named as it was read."""
    return f"{what} is outside the input range (exponent -{_BOUND} to {_BOUND})"
