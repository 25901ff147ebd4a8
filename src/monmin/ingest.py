"""CSV loaders and writers for the four input file formats.

All files are UTF-8, comma-separated, header-first, with "." as the
decimal point and no thousands separators:

    economies.csv  country,currency,gdp,population,as_of
    rates.csv      base,quote,rate,as_of
    basket.csv     country,currency,item,unit,amount,role   (role: item|salary)
    series.csv     year,m1,gdp,population[,events]

A ``# scale=<factor>`` comment line before the header multiplies the
monetary columns (gdp; m1 and gdp for series) into absolute units, so
"billions" tables can be transcribed verbatim.  Other ``#`` lines are
ignored.  A leading byte-order mark is skipped.  A quoted cell may span
lines, but a blank or ``#`` line is never part of a cell.  Numbers must
be finite, and a line that is not valid UTF-8 is an error on that line.
Without a ``# scale=`` line numbers are kept exactly as written.  A
number other than zero, as written and again after its scale, and the
scale factor itself must have an adjusted exponent within the input
range, ``errors._BOUND`` either side of zero, and a population at most
``_BOUND + 1`` digits.  Every loader, on either path, scales its cells in
``core._FIGURES``, entered once per file, so no issue or warning text
depends on the caller's ``decimal`` context.
Loading is all-or-nothing: any error row means the returned dataset is
empty and the report lists every problem with its 1-based physical line
number (a row's first line when it spans several).

Both load paths read a file through one line reader, ``_table_lines``,
which holds the format's line rules, and one ``csv.reader`` over its
lines.  The economies, basket and series loaders read a regular file of at
least ``_BLOCK_CHARS`` bytes by the block path in
``monmin._ingest_blocks`` first: each block of ``_BLOCK_ROWS`` rows is
converted and checked a column at a time, into values made by the types'
column forms.  At the first doubt (any row that may be refused, a line
that is not valid UTF-8, or a cell the block path does not read itself)
the file is closed and loaded again by the row path, which alone reports
issues, so the issues are the same whichever path ran.  The row path
turns one row at a time into values.  It alone loads rates files, smaller
files, whose gain would not pay for compiling the block path, and any
input that is not a regular file, since a FIFO cannot be read twice.

What a ``write_*`` function writes loads back equal, except that every
cell loads back stripped of leading and trailing whitespace.  A row with
a carriage return in any cell, or whose first cell begins with ``#``
after leading whitespace, is written with every cell quoted.  A cell
with a line, after its first, that is blank, whitespace-only or begins
with ``#`` is refused with ``ValueError``: the format cannot carry it.
The refused write then removes the file, so no partial file is left.
"""
from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass
from decimal import Context, Decimal, InvalidOperation, localcontext
from itertools import compress, repeat
from operator import attrgetter, is_not
from pathlib import Path
from stat import S_ISREG
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .core import _FIGURES, CurrencyCode, EconomySnapshot, ExchangeRate, PriceQuote, RateTable, TimeStandard
from .errors import (
    CurrencyMismatch, DuplicateCountry, DuplicatePair, MalformedRow, MonMinError, NonMonotoneYears,
    UnknownCurrency, _BOUND, _outside,
)

if TYPE_CHECKING:  # only load_series imports it
    from .series import AggregateSeries

__all__ = [
    "Basket",
    "IngestReport",
    "Issue",
    "load_basket",
    "load_economies",
    "load_rates",
    "load_series",
    "write_basket",
    "write_economies",
    "write_rates",
    "write_series",
]

_DIRECTIVE_RE = re.compile(r"^#\s*([a-z_]+)\s*=\s*(\S+)\s*$")
_ESCAPED_RE = re.compile("[\udc80-\udcff]")  # bytes that ``surrogateescape`` could not decode
# A line break (as a file is read: \r\n, \r or \n) that starts a line the reader
# drops, one that is blank or begins with "#" after leading whitespace.  A cell
# that ends in a line break is not caught: its closing quote follows on that line.
_DROPPED_LINE_RE = re.compile(r"(?:\r\n|\r(?!\n)|\n)[^\S\r\n]*[#\r\n]")
_ROW_ERRORS = (MonMinError, InvalidOperation, ValueError)
_BLOCK_CHARS = 1 << 16  # the size, in bytes, from which a file is tried by the block path first
_BLOCK_ROWS = 256  # the rows the block path converts and checks per column pass
_CURRENCY = attrgetter("currency")

_ECONOMIES_HEADER = ["country", "currency", "gdp", "population", "as_of"]
_RATES_HEADER = ["base", "quote", "rate", "as_of"]
_BASKET_HEADER = ["country", "currency", "item", "unit", "amount", "role"]
_SERIES_HEADER = ["year", "m1", "gdp", "population"]


class Issue(NamedTuple):
    line: int
    message: str


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one file load; errors imply an empty dataset."""

    records_accepted: int
    warnings: tuple[Issue, ...] = ()
    errors: tuple[Issue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class Basket:
    """Price quotes of one country/currency context, salary kept apart."""

    country: str
    currency: CurrencyCode
    items: tuple[PriceQuote, ...]
    salary: PriceQuote | None = None

    def __post_init__(self):
        currency = self.currency
        quotes = self.items if self.salary is None else (*self.items, self.salary)
        # a loaded basket shares one code object: only another object is compared by value
        for quote in compress(quotes, map(is_not, map(_CURRENCY, quotes), repeat(currency))):
            if quote.currency != currency:
                raise CurrencyMismatch(
                    f"basket {self.country}/{currency}: {quote.item} is priced in {quote.currency}"
                )

    def quotes(self) -> Iterator[tuple[PriceQuote, str]]:
        """Each quote with its role: the items, then the salary if any."""
        for quote in self.items:
            yield quote, "item"
        if self.salary is not None:
            yield self.salary, "salary"

    @property
    def quote_count(self) -> int:
        """How many quotes :meth:`quotes` yields."""
        return len(self.items) + (self.salary is not None)


class _Scan(NamedTuple):
    directives: dict[str, tuple[int, str]]  # name -> (line, value)
    header_line: int
    rows: Iterator[tuple[int, Iterator[str]]]  # (first physical line, stripped cells), read lazily
    errors: list[Issue]  # shared: csv errors land here while ``rows`` is read


class _Once(dict):
    """Per-file cache: ``make(text)`` runs once per distinct text, and a hit is a dict lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, text: str):
        value = self[text] = self.make(text)
        return value


def _finite(text: str, scale: Decimal | None = None) -> Decimal:
    """A finite number in the input range, multiplied by ``scale`` only when a scale is given.

    A loader calls it in ``core._FIGURES``, entered once per file.  The
    multiplication rounds to that context's precision, so an unscaled
    number skips it and keeps every digit.  A number other than zero is
    refused past the input range as written, and a product again after its
    scale; a zero of any exponent loads.  The checks are written out here,
    with no function call, since a dirty file loads row by row.
    """
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"not a number: {text!r}") from None
    if not value.is_finite():
        raise ValueError(f"not a finite number: {text!r}")
    if not -_BOUND <= value.adjusted() <= _BOUND and value:
        raise ValueError(_outside(repr(text)))
    if scale is None:
        return value
    value *= scale
    if not -_BOUND <= value.adjusted() <= _BOUND and value:
        raise ValueError(_outside(f"{text!r} times the scale factor {scale}"))
    return value


def _population(row, population: int) -> None:
    """Refuse ``row``'s ``population`` past ``_BOUND + 1`` digits.

    A loader calls it only for a cell of more than ``_BOUND`` characters,
    the only kind that can hold so many digits, so no other row pays for it.
    """
    if population >= 10 ** (_BOUND + 1):
        raise ValueError(_outside(f"{row}: a population of more than {_BOUND + 1} digits"))


def _issue(line: int, exc: Exception) -> Issue:
    """A row's issue: a domain error keeps its class name, a parse error is MalformedRow."""
    kind = type(exc).__name__ if isinstance(exc, MonMinError) else "MalformedRow"
    return Issue(line, f"{kind}: {exc}")


def _records(reader, numbers: list[int], errors: list[Issue], width: int, optional: int):
    """Each row's first physical line and stripped cells, the header's too.

    ``numbers`` receives the physical line of each line fed to the reader.
    The reader never reads past the end of a row, so after each row (or
    ``csv.Error``) it holds exactly that row's lines and is emptied again.
    A row after the header of another width is an issue, except that up
    to ``optional`` trailing cells may be missing; each reads as "".
    """
    counts = f"{width - optional} or {width}" if optional else str(width)
    wrong_width = f"MalformedRow: expected {counts} columns, got "
    header = True
    while True:
        try:
            for cells in reader:
                lineno = numbers[0]
                numbers.clear()
                missing = width - len(cells)
                if missing == 0 or header:
                    yield lineno, map(str.strip, cells)
                elif 0 < missing <= optional:
                    yield lineno, map(str.strip, cells + [""] * missing)
                else:
                    errors.append(Issue(lineno, wrong_width + str(len(cells))))
                header = False
            return
        except csv.Error as exc:
            errors.append(Issue(numbers[0], f"MalformedRow: {exc}"))
            numbers.clear()


def _open(path):
    """A data file opened for :func:`_table_lines`: a leading BOM skipped, bad bytes kept, line ends as read."""
    return open(path, encoding="utf-8-sig", errors="surrogateescape", newline="")


def _table_lines(fh, directives, numbers, errors: list[Issue]):
    """The file's lines for the csv reader, read one at a time: the line rules of both load paths.

    Blank and ``#`` lines are dropped, so they never form part of a quoted
    cell; ``#`` directives count only before the first line passed on.
    Each line's number is appended to ``numbers`` as it is passed on, and a
    line that is not valid UTF-8 is an issue on that line.
    """
    with fh:
        started = False
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                bad = _ESCAPED_RE.search(raw)
                if bad:
                    byte, column = ord(bad.group()) - 0xDC00, bad.start() + 1
                    errors.append(Issue(
                        lineno, f"MalformedRow: not valid UTF-8: byte 0x{byte:02X} at column {column}"
                    ))
            text = raw.lstrip()
            if not text:
                continue
            if text[0] == "#":
                match = _DIRECTIVE_RE.match(text.rstrip())
                if match and not started:
                    directives[match.group(1)] = (lineno, match.group(2))
                continue
            started = True
            numbers.append(lineno)
            yield raw


def _read_table(path, expected: list[str], optional: tuple[str, ...] = ()) -> _Scan:
    """Scan a file up to its header: directives, then one csv reader over the rest.

    The file is read as ``rows`` is consumed, so no more than one row's
    lines are held at a time; the block path, tried first, holds one
    block of rows.  Undecodable bytes are kept as lone
    surrogates (``surrogateescape``) and reported per physical line.
    Each row comes with the width checked and its cells stripped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"file not found: {path}")
    directives: dict[str, tuple[int, str]] = {}
    numbers: list[int] = []
    errors: list[Issue] = []
    lines = _table_lines(_open(path), directives, numbers, errors)
    rows = _records(csv.reader(lines), numbers, errors, len(expected) + len(optional), len(optional))
    first = next(rows, None)
    if first is None:
        errors.append(Issue(1, "MalformedRow: missing header row"))
        return _Scan(directives, 0, rows, errors)
    header_line, cells = first
    header = list(cells)
    if header != expected and header != expected + list(optional):
        errors.append(
            Issue(header_line, f"MalformedRow: header {header} does not match {expected}")
        )
    return _Scan(directives, header_line, rows, errors)


def _scale_factor(directives, errors: list[Issue]) -> Decimal | None:
    """The declared ``# scale=`` factor; None when there is none or it is bad."""
    if "scale" not in directives:
        return None
    lineno, text = directives["scale"]
    try:
        scale = Decimal(text)
        finite = scale.is_finite()
    except InvalidOperation:
        finite = False
    if not finite:
        errors.append(Issue(lineno, f"MalformedRow: bad scale factor {text!r}"))
        return None
    if scale <= 0:
        errors.append(Issue(lineno, f"NonPositiveInput: scale must be > 0, got {text}"))
        return None
    if not -_BOUND <= scale.adjusted() <= _BOUND:
        errors.append(Issue(lineno, f"MalformedRow: {_outside(f'scale factor {text!r}')}"))
        return None
    return scale


def _by_blocks(path, build: str, expected: list[str], *args, optional: tuple[str, ...] = ()):
    """``monmin._ingest_blocks``'s builder named ``build`` over a regular file of at least one block; else None.

    The one way into the block path, which returns None at its first
    doubt.  A FIFO or ``/dev/stdin`` cannot be read twice, and a small file
    gains less from the block path than compiling its module costs.
    """
    try:
        status = os.stat(path)
    except OSError:  # the row path reports it
        return None
    if not S_ISREG(status.st_mode) or status.st_size < _BLOCK_CHARS:
        return None
    from . import _ingest_blocks
    return _ingest_blocks._load(path, getattr(_ingest_blocks, build), expected, *args, optional=optional)


def load_economies(path) -> tuple[list[EconomySnapshot], IngestReport]:
    """Load country snapshots; gdp is multiplied by any declared scale."""
    if loaded := _by_blocks(path, "build_economies", _ECONOMIES_HEADER):
        return loaded
    scan = _read_table(path, _ECONOMIES_HEADER)
    errors = scan.errors
    scale = _scale_factor(scan.directives, errors)
    snapshots: list[EconomySnapshot] = []
    seen: dict[str, int] = {}
    codes = _Once(CurrencyCode)
    with localcontext(_FIGURES):
        for lineno, (country, code, gdp_text, pop_text, as_of) in scan.rows:
            try:
                snapshot = EconomySnapshot(
                    country, codes[code], _finite(gdp_text, scale), int(pop_text), as_of
                )
                if len(pop_text) > _BOUND:
                    _population(country, snapshot.population)
                if country in seen:
                    raise DuplicateCountry(f"{country} already defined on line {seen[country]}")
            except _ROW_ERRORS as exc:
                errors.append(_issue(lineno, exc))
                continue
            seen[country] = lineno
            snapshots.append(snapshot)
    if errors:
        return [], IngestReport(0, errors=tuple(errors))
    return snapshots, IngestReport(len(snapshots))


def load_rates(path) -> tuple[RateTable, IngestReport]:
    """Load a directed rate table; reciprocal drift is a warning, not an error."""
    scan = _read_table(path, _RATES_HEADER)
    errors = scan.errors
    rates: list[ExchangeRate] = []
    seen: dict[tuple[str, str], int] = {}
    codes = _Once(CurrencyCode)
    with localcontext(_FIGURES):
        for lineno, (base, quote, rate_text, as_of) in scan.rows:
            try:
                rate = ExchangeRate(
                    base=codes[base],
                    quote=codes[quote],
                    rate=_finite(rate_text),
                    as_of=as_of or None,
                )
                key = (rate.base.code, rate.quote.code)
                if key in seen:
                    raise DuplicatePair(f"{key[0]}->{key[1]} already defined on line {seen[key]}")
            except _ROW_ERRORS as exc:
                errors.append(_issue(lineno, exc))
                continue
            seen[key] = lineno
            rates.append(rate)
        if errors:
            return RateTable(), IngestReport(0, errors=tuple(errors))
        table = RateTable(rates)
        warnings: list[Issue] = []
        for fwd, back, product in table.reciprocal_mismatches():
            lineno = max(seen[(fwd.base.code, fwd.quote.code)], seen[(back.base.code, back.quote.code)])
            warnings.append(Issue(
                lineno, f"reciprocal rates {fwd.base}->{fwd.quote} and {back.base}->{back.quote} multiply to {product}, expected 1"
            ))
    return table, IngestReport(len(rates), warnings=tuple(warnings))


def _baskets(groups: dict[tuple[str, str], list], codes: _Once):
    """:func:`load_basket`'s result from its groups: (country, code) -> [items, salary]."""
    baskets = [
        Basket(country=country, currency=codes[code], items=tuple(items), salary=salary)
        for (country, code), (items, salary) in groups.items()
    ]
    return baskets, IngestReport(sum(b.quote_count for b in baskets))


def load_basket(path, known_currencies=None) -> tuple[list[Basket], IngestReport]:
    """Load price quotes grouped by (country, currency) context.

    When ``known_currencies`` is given, rows in other currencies are
    rejected with UnknownCurrency.  At most one salary row per group.
    Equal item or unit texts share one ``str`` object across the file.
    """
    known = None if known_currencies is None else {str(c) for c in known_currencies}
    if loaded := _by_blocks(path, "build_basket", _BASKET_HEADER, known):
        return loaded
    scan = _read_table(path, _BASKET_HEADER)
    errors = scan.errors
    groups: dict[tuple[str, str], list] = {}  # (country, code) -> [items, salary]
    codes = _Once(CurrencyCode)
    texts = _Once(str)
    with localcontext(_FIGURES):
        for lineno, (country, code, item, unit, amount_text, role) in scan.rows:
            try:
                if role not in ("item", "salary"):
                    raise MalformedRow(f"role must be item or salary, got {role!r}")
                if known is not None and code not in known:
                    raise UnknownCurrency(f"{code} is not in the known set")
                quote = PriceQuote(texts[item], texts[unit], codes[code], _finite(amount_text))
                group = groups.setdefault((country, code), [[], None])
                if role == "item":
                    group[0].append(quote)
                elif group[1] is None:
                    group[1] = quote
                else:
                    raise MalformedRow(f"duplicate salary row for {country}")
            except _ROW_ERRORS as exc:
                errors.append(_issue(lineno, exc))
    if errors:
        return [], IngestReport(0, errors=tuple(errors))
    return _baskets(groups, codes)


def load_series(
    path,
    currency: CurrencyCode = CurrencyCode("USD"),
    std: TimeStandard = TimeStandard(),
) -> tuple[AggregateSeries | None, IngestReport]:
    """Load a yearly aggregate series; m1 and gdp honour any declared scale.

    The file format carries no currency column, so the caller names the
    series currency (default USD).
    """
    from .series import AggregateSeries, AggregateYear  # here, so that only a series load imports it

    if loaded := _by_blocks(path, "build_series", _SERIES_HEADER, currency, std, optional=("events",)):
        return loaded
    scan = _read_table(path, _SERIES_HEADER, optional=("events",))
    errors = scan.errors
    scale = _scale_factor(scan.directives, errors)
    years: list[AggregateYear] = []
    last_year: int | None = None
    with localcontext(_FIGURES):
        for lineno, (year_text, m1_text, gdp_text, pop_text, events) in scan.rows:
            try:
                year = AggregateYear(
                    int(year_text), _finite(m1_text, scale), _finite(gdp_text, scale),
                    int(pop_text), events,
                )
                if len(pop_text) > _BOUND:
                    _population(year.year, year.population)
                if last_year is not None and year.year <= last_year:
                    raise NonMonotoneYears(f"{year.year} does not follow {last_year}")
            except _ROW_ERRORS as exc:
                errors.append(_issue(lineno, exc))
                continue
            last_year = year.year
            years.append(year)
    if not errors and not years:
        errors.append(Issue(scan.header_line, "EmptySeries: no data rows"))
    if errors:
        return None, IngestReport(0, errors=tuple(errors))
    return AggregateSeries(currency=currency, years=tuple(years), std=std), IngestReport(len(years))


_sci_text = Context(capitals=1).to_sci_string  # ``str``, with "E" whatever the caller's context


def _plain(value: Decimal) -> str:
    """Fixed-point text of a decimal, never scientific notation.

    Scientific text is several times cheaper than ``format(value, "f")``
    and the same unless it switches to an exponent.
    """
    text = _sci_text(value)
    return text if "E" not in text else format(value, "f")


def _text(value) -> str:
    """One written cell: fixed-point text for a decimal, "" for None, else ``str``."""
    if isinstance(value, Decimal):
        return _plain(value)
    return "" if value is None else str(value)


def _write(path, header: list[str], rows) -> None:
    """Write the header, then each row of values, so that the file loads back equal.

    A row whose first cell begins with ``#`` would read as a comment, and a
    lone carriage return is a line break to the reader but is not quoted by
    ``csv``: such a row has every cell quoted.  A cell with a later line
    that is blank or begins with ``#`` raises ``ValueError``, since the
    reader drops such lines.  Any failure removes the file, so the rows
    written before it never load as a complete file.
    """
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            out = csv.writer(fh, lineterminator="\n")
            quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            out.writerow(header)
            for number, row in enumerate(rows, start=1):
                cells = [_text(value) for value in row]
                for column, cell in zip(header, cells):
                    if _DROPPED_LINE_RE.search(cell):
                        raise ValueError(
                            f"record {number}, column {column!r}: {cell!r} has a later line that"
                            " is blank or begins with '#', which the file format cannot carry"
                        )
                if cells[0].lstrip()[:1] == "#" or any("\r" in cell for cell in cells):
                    quoted.writerow(cells)
                else:
                    out.writerow(cells)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def write_economies(path, snapshots) -> None:
    _write(path, _ECONOMIES_HEADER, map(attrgetter(*_ECONOMIES_HEADER), snapshots))


def write_rates(path, table: RateTable) -> None:
    _write(path, _RATES_HEADER, map(attrgetter(*_RATES_HEADER), table))


def write_basket(path, baskets) -> None:
    _write(path, _BASKET_HEADER, (
        (b.country, b.currency, quote.item, quote.unit, quote.amount, role)
        for b in baskets for quote, role in b.quotes()
    ))


def write_series(path, series: AggregateSeries) -> None:
    header = _SERIES_HEADER + ["events"]
    _write(path, header, map(attrgetter(*header), series.years))
