"""The block path of the economies, basket and series loaders in :mod:`monmin.ingest`.

A loader comes here only through ``ingest._by_blocks``, for a regular
file of at least ``ingest._BLOCK_CHARS`` bytes, so a process that reads
only small files never compiles this module.  The file's lines come from
the row path's own line reader, ``ingest._table_lines``, through one
``csv.reader``; each block of about ``ingest._BLOCK_ROWS`` rows is turned
into columns, each converted and checked in one C-level pass, and into
values by the types' column forms, all in ``core._FIGURES``, the row
path's context too, entered once per file.  A number is read in ``_IN_RANGE``, whose exponent range is
the input range, so a number past it raises that context's trap.  At the
first doubt, any row or line the row path may refuse
or a cell this path does not read itself, the file is closed and the
loader returns None, so that the row path loads it again and reports its
issues.  A ``MonMinError`` that a type raises, such as ``AggregateSeries``
refusing years out of order or no years at all, is a doubt too.  Memory is
bounded by one block of rows.
"""
from __future__ import annotations

import csv
from collections import deque
from decimal import MAX_PREC, Decimal, Subnormal, localcontext
from itertools import groupby, islice, repeat
from operator import mul

from . import ingest
from .core import _FIGURES, CurrencyCode, EconomySnapshot, TimeStandard, _iso_date, _quotes, _snapshots
from .errors import _BOUND, MonMinError
from .ingest import IngestReport, Issue, _baskets, _Once, _scale_factor

_NO_NUMBERS = deque(maxlen=0)  # this path names no line, so it keeps no line number
_ROLES = frozenset(("item", "salary"))

# Every digit of a number read, within the input range: past it, ``Overflow`` or ``Subnormal``.
_IN_RANGE = _FIGURES.copy()
_IN_RANGE.prec, _IN_RANGE.Emin, _IN_RANGE.Emax = MAX_PREC, -_BOUND, _BOUND
_IN_RANGE.traps[Subnormal] = True


class _Doubt(Exception):
    """The block path cannot vouch for a file, so the row path loads it again."""


# What a block pass raises where the row path would report an issue (or raise itself).
_DOUBTS = (_Doubt, csv.Error, ValueError, ArithmeticError, MonMinError)


def _columns(fh, expected: list[str], optional: tuple[str, ...]):
    """The declared scale factor, and the data rows' columns about ``_BLOCK_ROWS`` rows at a time.

    The rows are read and checked as ``ingest._read_table`` and
    ``ingest._records`` do; where they would report an issue, this raises a
    doubt instead.  An issue that ``ingest._table_lines`` or ``_scale_factor``
    reports (a bad ``# scale=`` line, even in a basket file) is a doubt after
    its block, or at the end.  The cells are not stripped: ``int`` ignores
    the whitespace ``str.strip`` removes, :func:`_numbers` strips a number
    itself, a code or role with any is a doubt, and a loader strips only the
    other texts it reads.
    """
    directives: dict[str, tuple[int, str]] = {}
    errors: list[Issue] = []
    reader = csv.reader(ingest._table_lines(fh, directives, _NO_NUMBERS, errors))
    header = next(reader, None)
    scale = _scale_factor(directives, errors)
    if header is None or list(map(str.strip, header)) not in (expected, expected + list(optional)):
        raise _Doubt
    width = len(expected) + len(optional)

    def columns():
        size = min(16, ingest._BLOCK_ROWS)  # the first blocks are small, so a doubt on an early row costs little
        while rows := list(islice(reader, size)):
            if errors:  # a bad scale factor, or a line that is not valid UTF-8
                raise _Doubt
            size = min(2 * size, ingest._BLOCK_ROWS)
            widths = set(map(len, rows))
            if widths != {width}:
                if not widths <= set(range(width - len(optional), width + 1)):
                    raise _Doubt
                rows = [row + [""] * (width - len(row)) for row in rows]
            yield zip(*rows)
        if errors:
            raise _Doubt

    return scale, columns()


def _load(path, build, expected: list[str], *args, optional: tuple[str, ...] = ()):
    """``build(scale, columns, *args)`` over the file, in ``core._FIGURES``; None at the first doubt, with the file closed.

    The one entry to this module, from ``ingest._by_blocks``; ``build`` is
    one of the ``build_*`` functions below and returns its loader's result.
    """
    try:
        with ingest._open(path) as fh, localcontext(_FIGURES):
            return build(*_columns(fh, expected, optional), *args)
    except _DOUBTS:
        return None


def _numbers(texts, scale: Decimal | None = None) -> list[Decimal]:
    """A column of numbers, each multiplied by ``scale`` when one is given, as ``ingest._finite`` does.

    A number that is not finite is left for the type's column form to refuse.
    A number that ``_finite`` refuses past the input range, as written or
    scaled, raises a trap of ``_IN_RANGE``: a doubt, and so does a text with
    ``_``, which ``Decimal`` reads and ``create_decimal`` does not.
    """
    values = map(_IN_RANGE.create_decimal, map(str.strip, texts))
    return list(values if scale is None else map(_IN_RANGE.create_decimal, map(mul, values, repeat(scale))))


def _populations(texts) -> list[int]:
    """A column of populations; a cell long enough to hold more digits than ``ingest`` allows is a doubt."""
    if max(map(len, texts)) > _BOUND:
        raise _Doubt
    return list(map(int, texts))


def build_economies(scale, blocks):
    """``ingest.load_economies``'s result from the file's blocks."""
    codes = _Once(CurrencyCode)
    dates = _Once(lambda cell: _iso_date(cell.strip()))
    seen: set[str] = set()
    snapshots: list[EconomySnapshot] = []
    for country, code, gdp, population, as_of in blocks:
        country = list(map(str.strip, country))
        made = _snapshots(
            country, list(map(codes.__getitem__, code)), _numbers(gdp, scale),
            _populations(population), list(map(dates.__getitem__, as_of)),
        )
        seen.update(country)
        if made is None or len(seen) != len(snapshots) + len(made):
            raise _Doubt
        snapshots += made
    return snapshots, IngestReport(len(snapshots))


def build_basket(_scale, blocks, known: set[str] | None):
    """``ingest.load_basket``'s result from the file's blocks.

    A block's rows join their groups a run of one (country, code, role), as
    read, at a time: an item run in one slice, a salary run of one row.
    """
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


def build_series(scale, blocks, currency: CurrencyCode, std: TimeStandard):
    """``ingest.load_series``'s result from the file's blocks."""
    from .series import AggregateSeries, AggregateYear, _years

    years: list[AggregateYear] = []
    for year, m1, gdp, population, events in blocks:
        made = _years(
            list(map(int, year)), _numbers(m1, scale), _numbers(gdp, scale), _populations(population),
            list(map(str.strip, events)),
        )
        if made is None:
            raise _Doubt
        years += made
    return AggregateSeries(currency=currency, years=tuple(years), std=std), IngestReport(len(years))
