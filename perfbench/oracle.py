"""The benchmark's own reference arithmetic, written without monmin.

Every generated output is checked against these plain-``Decimal``
formulas: minute values, minute prices, percents of salary, M1 in
minutes, and a strict local-extrema scan.  They use a fixed 28-digit
context, the same precision the paper's figures are defined at.
"""
from __future__ import annotations

from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Context, Decimal

MINUTES_PER_YEAR = Decimal(525600)
_CTX = Context(prec=28, rounding=ROUND_HALF_EVEN)


def scaled(text: str, scale: str) -> Decimal:
    """A monetary cell times the file's ``# scale=`` factor."""
    return _CTX.multiply(Decimal(text), Decimal(scale))


def cm(gdp: Decimal, population: int) -> Decimal:
    """Minute value: gdp / population / minutes per year."""
    return _CTX.divide(_CTX.divide(gdp, Decimal(population)), MINUTES_PER_YEAR)


def per_capita(gdp: Decimal, population: int) -> Decimal:
    """GDP per capita."""
    return _CTX.divide(gdp, Decimal(population))


def billions(value: Decimal) -> Decimal:
    """A currency amount in billions."""
    return _CTX.divide(value, Decimal("1e9"))


def in_minutes(amount: str, minute_value: Decimal) -> Decimal:
    """A price re-expressed in minutes: amount / minute value."""
    return _CTX.divide(Decimal(amount), minute_value)


def percent(amount: str, salary: str) -> Decimal:
    """A price as a percent of a salary in the same currency."""
    return _CTX.divide(_CTX.multiply(Decimal(100), Decimal(amount)), Decimal(salary))


def m1_minutes(m1: Decimal, gdp: Decimal, population: int) -> Decimal:
    """One year's M1 in minutes: m1 * population * minutes per year / gdp."""
    product = _CTX.multiply(_CTX.multiply(m1, Decimal(population)), MINUTES_PER_YEAR)
    return _CTX.divide(product, gdp)


def rounded(value: Decimal, places: int) -> str:
    """Fixed-point text at ``places`` decimals, ties away from zero."""
    return str(value.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP, context=_CTX))


def extrema(points: list[tuple[int, Decimal]]) -> tuple[list[int], list[int]]:
    """Strict local peaks and troughs; a run of equal values counts once, at its first year."""
    peaks: list[int] = []
    troughs: list[int] = []
    kept = [points[0]]
    for year, value in points[1:]:
        if value != kept[-1][1]:
            kept.append((year, value))
    for (_, before), (year, here), (_, after) in zip(kept, kept[1:], kept[2:]):
        if before < here > after:
            peaks.append(year)
        elif before > here < after:
            troughs.append(year)
    return peaks, troughs
