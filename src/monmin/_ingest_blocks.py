"""The block path of the economies, basket and series loaders in :mod:`monmin.ingest`.

A loader comes here only for a regular file of at least one block
(``ingest._BLOCK_CHARS``), so a process that reads only small files never
compiles this module.  The file is read a block of whole lines at a time;
blank and ``#`` lines are dropped by C-level checks over the block; one
``csv.reader`` parses the rest; and each block of about
``ingest._BLOCK_ROWS`` rows is turned into columns, each converted and
checked in one C-level pass, and into values by the types' column forms.
At the first doubt, any row the row path may refuse or a cell this path
does not read itself, the file is closed and the loader returns None, so
that the row path loads it again and reports its issues.  A
``MonMinError`` that a type raises, such as ``AggregateSeries`` refusing
years out of order or no years at all, is a doubt too.  Memory is bounded
by one block of lines and rows.
"""
from __future__ import annotations

import csv
import re
from decimal import Decimal
from itertools import chain, groupby, islice, repeat
from operator import itemgetter, methodcaller, mul

from . import ingest
from .core import CurrencyCode, EconomySnapshot, TimeStandard, _iso_date, _quotes, _snapshots
from .errors import MonMinError
from .ingest import _DIRECTIVE_RE, _ESCAPED_RE, IngestReport, Issue, _baskets, _Once, _scale_factor

_MAYBE_DROPPED_RE = re.compile(r"[\s#]")  # a line's first character, when the line may be dropped
_ROLES = frozenset(("item", "salary"))


class _Doubt(Exception):
    """The block path cannot vouch for a file, so the row path loads it again."""


# What a block pass raises where the row path would report an issue (or raise itself).
_DOUBTS = (_Doubt, csv.Error, ValueError, ArithmeticError, MonMinError)


def _line_blocks(fh, directives: dict[str, tuple[int, str]]):
    """The lines ``ingest._table_lines`` passes on, in lists of about ``_BLOCK_CHARS`` characters.

    The first lists are smaller, as in :func:`_columns`.  Only a line whose
    first character is whitespace or ``#`` can be dropped, so only those
    lines are looked at one by one.  A byte that is not valid UTF-8 is a
    doubt.  A directive is kept with line 0: a bad one is a doubt, so its
    line is never shown.
    """
    started, size = False, min(4096, ingest._BLOCK_CHARS)
    while lines := fh.readlines(size):
        size = min(2 * size, ingest._BLOCK_CHARS)
        if not all(map(str.isascii, lines)) and _ESCAPED_RE.search("".join(lines)):
            raise _Doubt
        firsts = "".join(map(itemgetter(0), lines))
        dropped = [
            i for i in map(methodcaller("start"), _MAYBE_DROPPED_RE.finditer(firsts))
            if lines[i].lstrip()[:1] in ("", "#")
        ]
        if not started:  # directives: the dropped lines before the first line passed on
            for before, i in enumerate(dropped):
                if before != i:
                    break
                match = _DIRECTIVE_RE.match(lines[i].strip())
                if match:
                    directives[match.group(1)] = (0, match.group(2))
            started = len(dropped) < len(lines)
        for i in reversed(dropped):
            del lines[i]
        yield lines


def _columns(fh, expected: list[str], optional: tuple[str, ...]):
    """The declared scale factor, and the data rows' columns about ``_BLOCK_ROWS`` rows at a time.

    The rows are read and checked as ``ingest._read_table`` and
    ``ingest._records`` do; where they would report an issue, this raises a
    doubt instead.  A bad ``# scale=`` line is a doubt too, even in a basket
    file, which has none.  The cells are not stripped: ``Decimal`` and
    ``int`` ignore the whitespace ``str.strip`` removes, a code or role with
    any is a doubt, and a loader strips only the other texts it reads.
    """
    directives: dict[str, tuple[int, str]] = {}
    reader = csv.reader(chain.from_iterable(_line_blocks(fh, directives)))
    header = next(reader, None)
    errors: list[Issue] = []
    scale = _scale_factor(directives, errors)
    if errors or header is None or list(map(str.strip, header)) not in (expected, expected + list(optional)):
        raise _Doubt
    width = len(expected) + len(optional)

    def columns():
        size = min(16, ingest._BLOCK_ROWS)  # the first blocks are small, so a doubt on an early row costs little
        while rows := list(islice(reader, size)):
            size = min(2 * size, ingest._BLOCK_ROWS)
            widths = set(map(len, rows))
            if widths != {width}:
                if not widths <= set(range(width - len(optional), width + 1)):
                    raise _Doubt
                rows = [row + [""] * (width - len(row)) for row in rows]
            yield zip(*rows)

    return scale, columns()


def _load(path, expected: list[str], build, optional: tuple[str, ...] = ()):
    """``build(scale, columns)`` over the file; None at the first doubt, with the file closed."""
    try:
        with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            return build(*_columns(fh, expected, optional))
    except _DOUBTS:
        return None


def _numbers(texts, scale: Decimal | None = None) -> list[Decimal]:
    """A column of numbers, each multiplied by ``scale`` when one is given, as ``ingest._finite`` does.

    A number that is not finite is left for the type's column form to refuse.
    A number other than zero whose product underflows to zero is a doubt:
    a zero m1 passes the column form, and ``_finite`` refuses it.  So is any
    subnormal product, which ``_finite`` refuses when it lost digits.
    """
    values = list(map(Decimal, texts))
    if scale is None:
        return values
    products = list(map(mul, values, repeat(scale)))
    if any(map(Decimal.is_subnormal, products)) or (not all(products) and products.count(0) != values.count(0)):
        raise _Doubt
    return products


def load_economies(path):
    """``ingest.load_economies``'s result from a block pass, or None."""

    def build(scale, blocks):
        codes = _Once(CurrencyCode)
        dates = _Once(lambda cell: _iso_date(cell.strip()))
        seen: set[str] = set()
        snapshots: list[EconomySnapshot] = []
        for country, code, gdp, population, as_of in blocks:
            country = list(map(str.strip, country))
            made = _snapshots(
                country, list(map(codes.__getitem__, code)), _numbers(gdp, scale),
                list(map(int, population)), list(map(dates.__getitem__, as_of)),
            )
            seen.update(country)
            if made is None or len(seen) != len(snapshots) + len(made):
                raise _Doubt
            snapshots += made
        return snapshots, IngestReport(len(snapshots))

    return _load(path, ingest._ECONOMIES_HEADER, build)


def load_basket(path, known: set[str] | None):
    """``ingest.load_basket``'s result from a block pass, or None.

    A block's rows join their groups a run of one (country, code, role), as
    read, at a time: an item run in one slice, a salary run of one row.
    """
    def build(_scale, blocks):
        groups: dict[tuple[str, str], list] = {}
        codes = _Once(CurrencyCode)
        texts = _Once(str)
        shared = _Once(lambda cell: texts[cell.strip()])  # a cell as read -> its shared stripped text
        for country, code, item, unit, amount, role in blocks:
            if not _ROLES.issuperset(role) or known is not None and not known.issuperset(code):
                raise _Doubt
            quotes = _quotes(
                list(map(shared.__getitem__, item)), list(map(shared.__getitem__, unit)),
                list(map(codes.__getitem__, code)), _numbers(amount),
            )
            if quotes is None:
                raise _Doubt
            start = 0
            for (name, code_text, role_text), run in groupby(zip(country, code, role)):
                stop = start + len(list(run))
                group = groups.setdefault((name.strip(), code_text), [[], None])
                if role_text == "item":
                    group[0] += quotes[start:stop]
                elif group[1] is None and stop - start == 1:
                    group[1] = quotes[start]
                else:
                    raise _Doubt
                start = stop
        return _baskets(groups, codes)

    return _load(path, ingest._BASKET_HEADER, build)


def load_series(path, currency: CurrencyCode, std: TimeStandard):
    """``ingest.load_series``'s result from a block pass, or None."""
    from .series import AggregateSeries, AggregateYear, _years

    def build(scale, blocks):
        years: list[AggregateYear] = []
        for year, m1, gdp, population, events in blocks:
            made = _years(
                list(map(int, year)), _numbers(m1, scale), _numbers(gdp, scale), list(map(int, population)),
                list(map(str.strip, events)),
            )
            if made is None:
                raise _Doubt
            years += made
        return AggregateSeries(currency=currency, years=tuple(years), std=std), IngestReport(len(years))

    return _load(path, ingest._SERIES_HEADER, build, optional=("events",))
