"""Core Monetary Minute types and arithmetic.

A Monetary Minute is the 1/525600 share of an economy's yearly time
capacity; its price in a currency equals GDP per capita divided by the
minutes-per-year constant.  This module holds the immutable domain types
and the pure operations on them: computing per-economy minute values,
deriving them across exchange rates, re-pricing quotes in minutes,
hypothetical parity rates, and salary normalization.

Every figure is a `decimal.Decimal` computed in one context, ``_FIGURES``,
whatever the caller's context is: 28 significant digits, ties to even,
with ``Overflow`` trapped, the default context's values.  The functions
below use its methods; the table builders, the series and the loaders
enter it once per block, series or file, never once per row.  The
loaders and the CLI's flags refuse any number past the input range
(``errors._BOUND``), so no figure made from what they read leaves the
context's exponent range; a value a library caller builds directly is not
bounded, and a figure made from it may raise ``decimal.Overflow``.  Nothing
here rounds for display: the report layer rounds each figure once, under
its own context.  The plot data, the CLI's ``cm … source=`` notes and
``convert --decimals`` beyond 28 digits show the 28-digit figure itself.
Every type is a frozen value, every operation a pure function, so
everything is safe to share across threads.
"""
from __future__ import annotations

import re
import warnings
from collections import deque
from dataclasses import dataclass, field
from datetime import date
from decimal import ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow
from enum import Enum
from itertools import repeat

from .errors import (
    CurrencyMismatch,
    DuplicatePair,
    ItemMismatch,
    ItemMismatchWarning,
    NonPositiveInput,
)

__all__ = [
    "MINUTES_PER_YEAR",
    "MINUTES_PER_YEAR_ASTRONOMICAL",
    "CmSource",
    "CurrencyCode",
    "EconomySnapshot",
    "ExchangeRate",
    "MonMinPrice",
    "MonMinValue",
    "PriceQuote",
    "RateTable",
    "TimeStandard",
    "as_decimal",
    "compute_cm",
    "cross_cm",
    "from_monmin",
    "invert_cm",
    "parity_rate",
    "percent_of_salary",
    "to_monmin",
]

#: Postulated minutes in a year (365 d x 24 h x 60 min).
MINUTES_PER_YEAR = Decimal("525600")

#: Astronomical year length in minutes, selectable instead of the postulate.
MINUTES_PER_YEAR_ASTRONOMICAL = Decimal("525948.766")

_CODE_RE = re.compile(r"^[A-Z0-9]{3,4}$")

_ZERO = Decimal(0)

# The context of every figure monmin computes: the default context's values, named one by one, so that
# neither the caller's context nor a changed ``decimal.DefaultContext`` moves a digit.  Its methods set
# its flags, which are never read.
_FIGURES = Context(
    prec=28,
    rounding=ROUND_HALF_EVEN,
    Emin=-999999,
    Emax=999999,
    capitals=1,
    clamp=0,
    flags=[],
    traps=[InvalidOperation, DivisionByZero, Overflow],
)


def _slot_setters(cls, *names):
    """The setter of each named slot, taken once: it writes past a frozen ``__setattr__``.

    The column forms set a whole column of values through them
    (:func:`_made`).  Only :class:`EconomySnapshot` also sets its slots
    through them, from a hand-written ``__init__`` that checks its input
    once, which is cheaper than the generated one plus ``__post_init__``:
    a dirty economies file loads row by row, a snapshot per row.  The
    other row types keep the generated ``__init__``, since no large load
    builds them one at a time.  ``dataclass`` keeps a class-defined
    ``__init__``, so fields, ``replace``, eq/hash/repr, pickling and
    frozenness are still the generated ones.
    """
    return tuple(getattr(cls, name).__set__ for name in names)


_consume = deque(maxlen=0).extend  # runs an iterator to its end, keeping nothing


def _made(cls, setters, columns) -> list:
    """Values of ``cls``, one per row of ``columns``, each slot set from its column.

    No ``__init__`` runs: a type's column form calls this only once every
    row is known to keep that type's rules.  Each slot is set for the whole
    column in one C-level pass.
    """
    values = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for setter, column in zip(setters, columns):
        _consume(map(setter, values, column))
    return values


def _iso_date(text: str) -> date:
    """A date written ``YYYY-MM-DD`` in ASCII digits, the one form every Python version reads.

    ``date.fromisoformat`` reads more forms from Python 3.11 on (such as
    ``20190101`` and ``2019-W01-1``); those are refused with the text
    Python 3.10 gives.  Of ten ASCII characters with a ``-`` fifth and
    eighth, every version reads only ``YYYY-MM-DD`` and refuses the rest
    with the same text, so ``fromisoformat`` checks the digits.
    """
    if len(text) != 10 or text[4] != "-" or text[7] != "-" or not text.isascii():
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


def as_decimal(value) -> Decimal:
    """Coerce int/str/float/Decimal to Decimal.

    Floats go through ``str()`` so that binary representation noise does
    not leak into exact decimal arithmetic.
    """
    if isinstance(value, Decimal):
        return value
    if isinstance(value, (int, str)):
        return Decimal(value)
    if isinstance(value, float):
        return Decimal(str(value))
    raise TypeError(f"cannot convert {type(value).__name__} to Decimal")


def _finite_decimal(value, label: str, subject=None) -> Decimal:
    """``value`` as a Decimal, refused with NonPositiveInput unless it is finite.

    The message names the value's ``label``, after ``subject:`` when one
    is given, and the value itself: ``Gold: amount must be finite, got NaN``.
    """
    if type(value) is not Decimal:
        value = as_decimal(value)
    if not value.is_finite():
        name = label if subject is None else f"{subject}: {label}"
        raise NonPositiveInput(f"{name} must be finite, got {value}")
    return value


def _number(value, label: str, subject=None, zero: bool = False) -> Decimal:
    """:func:`_finite_decimal` of ``value``, refused with NonPositiveInput below zero, or at zero unless ``zero``.

    The message is shaped like the finite one: ``Gold: amount must be >= 0,
    got -1``.  Every value type but :class:`MonMinValue`, whose message puts
    the currency last, calls it for each number in its ``__post_init__``, so
    a number is checked in full before the next field; only
    :class:`EconomySnapshot`'s hand-written ``__init__`` calls it just for a
    gdp that is not already a positive Decimal, which keeps a function call
    off the rows of a dirty economies file.
    """
    value = _finite_decimal(value, label, subject)
    if value < 0 or not (value or zero):
        name = label if subject is None else f"{subject}: {label}"
        raise NonPositiveInput(f"{name} must be {'>=' if zero else '>'} 0, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class CurrencyCode:
    """ISO-style currency identifier, e.g. USD or CZK.

    Equality and hashing use the code only; the display symbol is
    cosmetic.
    """

    code: str
    symbol: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.code, str) or not _CODE_RE.match(self.code):
            raise ValueError(
                f"currency code must be 3-4 uppercase characters, got {self.code!r}"
            )

    def __str__(self) -> str:
        return self.code


def _currency_code(currency) -> None:
    """Refuse, with ``TypeError``, a currency that is not a :class:`CurrencyCode`."""
    if not isinstance(currency, CurrencyCode):
        raise TypeError(f"currency must be a CurrencyCode, got {currency!r}")


@dataclass(frozen=True, slots=True)
class TimeStandard:
    """The minutes-per-year constant a Monetary Minute is defined against."""

    minutes_per_year: Decimal = MINUTES_PER_YEAR

    def __post_init__(self):
        object.__setattr__(self, "minutes_per_year", _number(self.minutes_per_year, "minutes_per_year"))


@dataclass(frozen=True, slots=True)
class EconomySnapshot:
    """One country's GDP, population and currency at a reference date.

    ``gdp`` is in absolute currency units, never in billions; loaders
    multiply out any scale factor before building a snapshot.
    """

    country: str
    currency: CurrencyCode
    gdp: Decimal
    population: int
    as_of: date

    # Hand-written, unlike the other row types: a dirty economies file is loaded row by row.
    # The generated __init__ plus a __post_init__ measured 150 ms, not 79, for 99,000 snapshots,
    # and economies-large wall_rel 158 against 146 (medians of 5 pairs; 2 vCPUs, Python 3.11).
    def __init__(
        self, country: str, currency: CurrencyCode, gdp: Decimal, population: int, as_of: date
    ) -> None:
        if type(gdp) is not Decimal or not gdp.is_finite() or gdp <= _ZERO:
            gdp = _number(gdp, "gdp", country)
        if isinstance(as_of, str):
            as_of = _iso_date(as_of)
        if not isinstance(population, int) or population <= 0:
            raise NonPositiveInput(
                f"{country}: population must be a positive integer, got {population!r}"
            )
        _snapshot_country(self, country)
        _snapshot_currency(self, currency)
        _snapshot_gdp(self, gdp)
        _snapshot_population(self, population)
        _snapshot_as_of(self, as_of)

    def gdp_per_capita(self) -> Decimal:
        return _FIGURES.divide(self.gdp, self.population)


_SNAPSHOT_SLOTS = _slot_setters(EconomySnapshot, "country", "currency", "gdp", "population", "as_of")
_snapshot_country, _snapshot_currency, _snapshot_gdp, _snapshot_population, _snapshot_as_of = (
    _SNAPSHOT_SLOTS
)


def _snapshots(country, currency, gdp, population, as_of) -> list[EconomySnapshot] | None:
    """``EconomySnapshot(*row)`` for each row of one or more, given as columns of the field types.

    The column form of ``__init__``'s rules: None when any row breaks one
    (a gdp that is not finite and positive, a population that is not
    positive), so the caller can make those rows one by one for the error.
    """
    if all(map(Decimal.is_finite, gdp)) and min(gdp) > _ZERO and min(population) > 0:
        return _made(EconomySnapshot, _SNAPSHOT_SLOTS, (country, currency, gdp, population, as_of))
    return None


class CmSource(Enum):
    """Provenance of a minute value; provenances are never silently mixed."""

    COMPUTED_FROM_GDP = "computed_from_gdp"
    CROSS_RATE = "cross_rate"
    MANUAL = "manual"


@dataclass(frozen=True, slots=True)
class MonMinValue:
    """Price of one Monetary Minute: currency units per minute."""

    currency: CurrencyCode
    value: Decimal
    source: CmSource = CmSource.MANUAL

    def __post_init__(self):
        _currency_code(self.currency)
        object.__setattr__(self, "value", _finite_decimal(self.value, "minute value", self.currency))
        if self.value <= 0:
            raise NonPositiveInput(f"minute value must be > 0, got {self.value} {self.currency}")


@dataclass(frozen=True, slots=True)
class ExchangeRate:
    """Directed rate: units of ``quote`` per 1 unit of ``base``."""

    base: CurrencyCode
    quote: CurrencyCode
    rate: Decimal
    as_of: date | None = None

    def __post_init__(self):
        object.__setattr__(self, "rate", _number(self.rate, f"rate {self.base}->{self.quote}"))
        if isinstance(self.as_of, str):
            object.__setattr__(self, "as_of", _iso_date(self.as_of))
        if self.base == self.quote:
            raise ValueError(f"base and quote must differ, both are {self.base}")


class RateTable:
    """Exchange rates keyed by (base, quote), at most one per pair.

    Immutable after construction; iteration preserves insertion order so
    rendered output is deterministic.
    """

    def __init__(self, rates=()):
        self._rates: dict[tuple[str, str], ExchangeRate] = {}
        for rate in rates:
            key = (rate.base.code, rate.quote.code)
            if key in self._rates:
                raise DuplicatePair(f"duplicate rate for {key[0]}->{key[1]}")
            self._rates[key] = rate

    def get(self, base, quote) -> ExchangeRate | None:
        return self._rates.get((str(base), str(quote)))

    def __iter__(self):
        return iter(self._rates.values())

    def __len__(self) -> int:
        return len(self._rates)

    def __contains__(self, pair) -> bool:
        base, quote = pair
        return (str(base), str(quote)) in self._rates

    def __eq__(self, other) -> bool:
        if not isinstance(other, RateTable):
            return NotImplemented
        return self._rates == other._rates

    def __repr__(self) -> str:
        return f"RateTable({list(self._rates.values())!r})"

    def reciprocal_mismatches(self, rel_tol: Decimal = Decimal("1e-6")):
        """Pairs (a,b)/(b,a) whose rate product strays from 1 beyond rel_tol."""
        found = []
        for (base, quote), fwd in self._rates.items():
            if base > quote:
                continue  # report each pair once
            back = self._rates.get((quote, base))
            if back is None:
                continue
            product = _FIGURES.multiply(fwd.rate, back.rate)
            if _FIGURES.abs(_FIGURES.subtract(product, 1)) > rel_tol:
                found.append((fwd, back, product))
        return found


@dataclass(frozen=True, slots=True)
class PriceQuote:
    """A priced item (or salary) in a named currency."""

    item: str
    unit: str
    currency: CurrencyCode
    amount: Decimal

    def __post_init__(self):
        _currency_code(self.currency)
        object.__setattr__(self, "amount", _number(self.amount, "amount", self.item, zero=True))


_QUOTE_SLOTS = _slot_setters(PriceQuote, "item", "unit", "currency", "amount")


def _quotes(item, unit, currency, amount) -> list[PriceQuote] | None:
    """``PriceQuote(*row)`` for each row of one or more, given as columns of the field types.

    The column form of ``__post_init__``'s rules: None when any amount is not
    finite and at least zero.
    """
    if all(map(Decimal.is_finite, amount)) and min(amount) >= _ZERO:
        return _made(PriceQuote, _QUOTE_SLOTS, (item, unit, currency, amount))
    return None


@dataclass(frozen=True, slots=True)
class MonMinPrice:
    """A price re-expressed in Monetary Minutes of one currency context."""

    item: str
    currency_context: CurrencyCode
    monmin: Decimal

    def __post_init__(self):
        object.__setattr__(self, "monmin", _number(self.monmin, "minute price", self.item, zero=True))


def compute_cm(econ: EconomySnapshot, std: TimeStandard = TimeStandard()) -> MonMinValue:
    """Minute value of an economy: gdp / population / minutes_per_year.

    Full 28-digit precision is kept; callers round only when reporting.
    :func:`monmin.report.build_table1` makes the same division in each row,
    without building a :class:`MonMinValue`.
    """
    value = _FIGURES.divide(_FIGURES.divide(econ.gdp, econ.population), std.minutes_per_year)
    return MonMinValue(econ.currency, value, CmSource.COMPUTED_FROM_GDP)


def cross_cm(ref: MonMinValue, rate: ExchangeRate) -> MonMinValue:
    """Minute value in another currency: ref value times the directed rate."""
    if rate.base != ref.currency:
        raise CurrencyMismatch(
            f"rate base {rate.base} does not match reference currency {ref.currency}"
        )
    return MonMinValue(currency=rate.quote, value=_FIGURES.multiply(ref.value, rate.rate), source=CmSource.CROSS_RATE)


def invert_cm(cm: MonMinValue) -> Decimal:
    """Minutes represented by one unit of the currency: 1 / value."""
    return _FIGURES.divide(1, cm.value)


def to_monmin(price: PriceQuote, cm: MonMinValue) -> MonMinPrice:
    """Re-express a currency price in Monetary Minutes: amount / value."""
    if price.currency != cm.currency:
        raise CurrencyMismatch(
            f"price in {price.currency} cannot use a {cm.currency} minute value"
        )
    return MonMinPrice(
        item=price.item, currency_context=cm.currency, monmin=_FIGURES.divide(price.amount, cm.value)
    )


def from_monmin(mp: MonMinPrice, cm: MonMinValue, unit: str = "") -> PriceQuote:
    """Inverse of :func:`to_monmin`: amount = minutes times the minute value."""
    if mp.currency_context != cm.currency:
        raise CurrencyMismatch(
            f"minute price in {mp.currency_context} context cannot use a "
            f"{cm.currency} minute value"
        )
    return PriceQuote(
        item=mp.item, unit=unit, currency=cm.currency, amount=_FIGURES.multiply(mp.monmin, cm.value)
    )


def parity_rate(
    current_rate: ExchangeRate,
    ref_price: MonMinPrice,
    local_price: MonMinPrice,
    strict_items: bool = False,
) -> Decimal:
    """Hypothetical rate equalizing an item's nominal minute price.

    Scales the current rate by the ratio of the reference to the local
    minute price; at that rate the local market's minute price of the
    item would equal the reference market's.

    Differing item names warn by default (``ItemMismatchWarning``) and
    raise :class:`ItemMismatch` when ``strict_items`` is set.
    """
    if local_price.monmin <= 0:
        raise NonPositiveInput(
            f"local minute price must be > 0, got {local_price.monmin}"
        )
    if ref_price.item != local_price.item:
        message = (
            f"parity compares different items: {ref_price.item!r} vs "
            f"{local_price.item!r}"
        )
        if strict_items:
            raise ItemMismatch(message)
        warnings.warn(message, ItemMismatchWarning, stacklevel=2)
    return _FIGURES.divide(_FIGURES.multiply(current_rate.rate, ref_price.monmin), local_price.monmin)


def percent_of_salary(price: MonMinPrice, salary: MonMinPrice) -> Decimal:
    """Price as a percentage of a salary, both in the same minute context.

    The minute value cancels, so the result equals 100 * raw price /
    raw salary computed in the underlying currency.
    """
    if price.currency_context != salary.currency_context:
        raise CurrencyMismatch(
            f"price context {price.currency_context} differs from salary "
            f"context {salary.currency_context}"
        )
    if salary.monmin <= 0:
        raise NonPositiveInput(f"salary must be > 0, got {salary.monmin}")
    return _FIGURES.divide(_FIGURES.multiply(100, price.monmin), salary.monmin)
