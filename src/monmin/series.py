"""Yearly money-stock aggregates re-expressed in Monetary Minutes.

Given per-year (M1, GDP, population) triples, each year's M1 is divided
by that year's minute value, i.e. M1 * population * minutes_per_year /
GDP.  A simple strict local-extrema scan over the resulting curve finds
its peaks and troughs; runs of exactly equal values count once, at the
first year of the run, and the series endpoints are never extrema.

Each year's ``m1 * population * minutes_per_year`` is formed exactly, in
``_PRODUCTS``, and divided by gdp once, in ``core._FIGURES``: so two years
whose exact values are equal get equal figures.  Each context is entered
once per series.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_PREC, Decimal, Overflow, localcontext
from itertools import groupby
from operator import attrgetter, itemgetter, truediv

from .core import _FIGURES, _ZERO, CurrencyCode, TimeStandard, _made, _number, _slot_setters
from .errors import EmptySeries, NonMonotoneYears, NonPositiveInput, TooShort, _overflow

__all__ = [
    "AggregateSeries",
    "AggregateYear",
    "ExtremaReport",
    "detect_extrema",
    "m1_in_monmin",
    "series_in_monmin",
]


@dataclass(frozen=True, slots=True)
class AggregateYear:
    """One year's M1 and GDP (absolute currency units) plus population."""

    year: int
    m1: Decimal
    gdp: Decimal
    population: int
    events: str = ""  # pass-through annotation, never interpreted

    def __post_init__(self):
        object.__setattr__(self, "m1", _number(self.m1, "m1", self.year, zero=True))
        object.__setattr__(self, "gdp", _number(self.gdp, "gdp", self.year))
        if self.population <= 0:
            raise NonPositiveInput(f"{self.year}: population must be > 0, got {self.population}")


_YEAR_SLOTS = _slot_setters(AggregateYear, "year", "m1", "gdp", "population", "events")

# Exact products: as many digits as a product has, within the figures' exponent range and traps.
_PRODUCTS = _FIGURES.copy()
_PRODUCTS.prec = MAX_PREC
_YEAR, _GDP = attrgetter("year"), attrgetter("gdp")


def _years(year, m1, gdp, population, events) -> list[AggregateYear] | None:
    """``AggregateYear(*row)`` for each row of one or more, given as columns of the field types.

    The column form of ``__post_init__``'s rules: None when any row breaks one
    (an m1 that is not finite and at least zero, a gdp that is not finite
    and positive, a population that is not positive).
    """
    if (
        all(map(Decimal.is_finite, m1)) and all(map(Decimal.is_finite, gdp))
        and min(m1) >= _ZERO and min(gdp) > _ZERO and min(population) > 0
    ):
        return _made(AggregateYear, _YEAR_SLOTS, (year, m1, gdp, population, events))
    return None


@dataclass(frozen=True, slots=True)
class AggregateSeries:
    """Ordered yearly aggregates for one economy."""

    currency: CurrencyCode
    years: tuple[AggregateYear, ...]
    std: TimeStandard = TimeStandard()

    def __post_init__(self):
        object.__setattr__(self, "years", tuple(self.years))
        if not self.years:
            raise EmptySeries("a series needs at least one year")
        labels = [y.year for y in self.years]
        for prev, cur in zip(labels, labels[1:]):
            if cur <= prev:
                raise NonMonotoneYears(
                    f"years must be strictly increasing: {prev} then {cur}"
                )


@dataclass(frozen=True, slots=True)
class ExtremaReport:
    """Years of local peaks and troughs; the two sets never overlap."""

    peaks: tuple[int, ...]
    troughs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        object.__setattr__(self, "troughs", tuple(self.troughs))
        overlap = set(self.peaks) & set(self.troughs)
        if overlap:
            raise ValueError(f"years cannot be both peak and trough: {sorted(overlap)}")


def m1_in_monmin(y: AggregateYear, std: TimeStandard = TimeStandard()) -> Decimal:
    """One year's M1 in minutes: the exact m1 * population * minutes_per_year, divided once by gdp.

    A value past the decimal exponent range raises an ``Overflow:``
    :class:`MonMinError` that names the year.
    """
    try:
        return _FIGURES.divide(_PRODUCTS.multiply(_PRODUCTS.multiply(y.m1, y.population), std.minutes_per_year), y.gdp)
    except Overflow:
        raise _overflow(f"{y.year}: m1 in minutes = m1 * population * minutes_per_year / gdp") from None


def series_in_monmin(s: AggregateSeries) -> list[tuple[int, Decimal]]:
    """Element-wise :func:`m1_in_monmin` over a series, order preserved.

    A value past the decimal exponent range raises an ``Overflow:``
    :class:`MonMinError` that names its year.
    """
    minutes, years = s.std.minutes_per_year, s.years
    try:
        with localcontext(_PRODUCTS):
            products = [y.m1 * y.population * minutes for y in years]
        with localcontext(_FIGURES):
            values = list(map(truediv, products, map(_GDP, years)))
        return list(zip(map(_YEAR, years), values))
    except Overflow:
        for y in s.years:
            m1_in_monmin(y, s.std)  # raises the overflow with the year named
        raise


def detect_extrema(values) -> ExtremaReport:
    """Strict local peaks and troughs of a (year, value) sequence.

    A year is a peak when its value strictly exceeds both neighbouring
    values, a trough when strictly below; a run of equal values is
    treated as a single point attributed to its first year.  Endpoints
    are never extrema.  Needs at least three points.
    """
    points = list(values)
    if len(points) < 3:
        raise TooShort(f"extrema detection needs >= 3 points, got {len(points)}")
    for (y0, _), (y1, _) in zip(points, points[1:]):
        if y1 <= y0:
            raise NonMonotoneYears(f"years must be strictly increasing: {y0} then {y1}")

    # collapse plateaus to their first year, then triple-scan
    compressed = [next(run) for _, run in groupby(points, itemgetter(1))]
    peaks, troughs = [], []
    for (_, before), (year, here), (_, after) in zip(compressed, compressed[1:], compressed[2:]):
        if here > before and here > after:
            peaks.append(year)
        elif here < before and here < after:
            troughs.append(year)
    return ExtremaReport(peaks=tuple(peaks), troughs=tuple(troughs))
