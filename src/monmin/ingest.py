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
Loading is all-or-nothing: any error row means the returned dataset is
empty and the report lists every problem with its 1-based physical line
number (a row's first line when it spans several).
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Iterator, NamedTuple

from .core import CurrencyCode, EconomySnapshot, ExchangeRate, PriceQuote, RateTable, TimeStandard
from .errors import CurrencyMismatch, NonPositiveInput
from .series import AggregateSeries, AggregateYear

_DIRECTIVE_RE = re.compile(r"^#\s*([a-z_]+)\s*=\s*(\S+)\s*$")
_ESCAPED_RE = re.compile("[\udc80-\udcff]")  # bytes that ``surrogateescape`` could not decode

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
        for quote in quotes:
            if quote.currency is not currency and quote.currency != currency:
                raise CurrencyMismatch(
                    f"basket {self.country}/{currency}: {quote.item} is priced in {quote.currency}"
                )


class _Scan(NamedTuple):
    directives: dict[str, tuple[int, str]]  # name -> (line, value)
    header_line: int
    rows: Iterator[tuple[int, list[str]]]  # (first physical line, cells), read lazily
    errors: list[Issue]  # shared: csv errors land here while ``rows`` is read


class _Codes(dict):
    """Per-file cache so each distinct currency code is validated once."""

    def __missing__(self, text: str) -> CurrencyCode:
        code = self[text] = CurrencyCode(text)
        return code


def _finite(text: str) -> Decimal:
    value = Decimal(text)
    if not value.is_finite():
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _records(reader, numbers: list[int], errors: list[Issue]):
    """Rows of one csv reader, each with the physical line it starts on.

    ``numbers`` receives the physical line of each line fed to the reader.
    The reader never reads past the end of a row, so after each row (or
    ``csv.Error``) it holds exactly that row's lines and is emptied again.
    """
    while True:
        try:
            for cells in reader:
                yield numbers[0], cells
                numbers.clear()
            return
        except csv.Error as exc:
            errors.append(Issue(numbers[0], f"MalformedRow: {exc}"))
            numbers.clear()


def _table_lines(fh, directives, numbers: list[int], errors: list[Issue]):
    """The file's lines for the csv reader, read one at a time.

    Blank and ``#`` lines are dropped, so they never form part of a quoted
    cell; ``#`` directives count only before the first line passed on.
    Each line's number goes into ``numbers`` as it is passed on, and a
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
    lines are held at a time.  Undecodable bytes are kept as lone
    surrogates (``surrogateescape``) and reported per physical line.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"file not found: {path}")
    directives: dict[str, tuple[int, str]] = {}
    numbers: list[int] = []
    errors: list[Issue] = []
    fh = open(path, encoding="utf-8-sig", errors="surrogateescape", newline="")
    lines = _table_lines(fh, directives, numbers, errors)
    rows = _records(csv.reader(lines), numbers, errors)
    first = next(rows, None)
    if first is None:
        errors.append(Issue(1, "MalformedRow: missing header row"))
        return _Scan(directives, 0, rows, errors)
    header_line, cells = first
    header = [c.strip() for c in cells]
    if header != expected and header != expected + list(optional):
        errors.append(
            Issue(header_line, f"MalformedRow: header {header} does not match {expected}")
        )
    return _Scan(directives, header_line, rows, errors)


def _scale_factor(scan: _Scan, errors: list[Issue]) -> Decimal:
    if "scale" not in scan.directives:
        return Decimal(1)
    lineno, text = scan.directives["scale"]
    try:
        scale = Decimal(text)
    except InvalidOperation:
        errors.append(Issue(lineno, f"MalformedRow: bad scale factor {text!r}"))
        return Decimal(1)
    if scale <= 0:
        errors.append(Issue(lineno, f"NonPositiveInput: scale must be > 0, got {text}"))
        return Decimal(1)
    return scale


def load_economies(path) -> tuple[list[EconomySnapshot], IngestReport]:
    """Load country snapshots; gdp is multiplied by any declared scale."""
    scan = _read_table(path, _ECONOMIES_HEADER)
    errors = scan.errors
    scale = _scale_factor(scan, errors)
    snapshots: list[EconomySnapshot] = []
    seen: dict[str, int] = {}
    codes = _Codes()
    for lineno, cells in scan.rows:
        if len(cells) != 5:
            errors.append(Issue(lineno, f"MalformedRow: expected 5 columns, got {len(cells)}"))
            continue
        country, code, gdp_text, pop_text, as_of = map(str.strip, cells)
        try:
            snapshot = EconomySnapshot(
                country, codes[code], _finite(gdp_text) * scale, int(pop_text), as_of
            )
        except NonPositiveInput as exc:
            errors.append(Issue(lineno, f"NonPositiveInput: {exc}"))
            continue
        except (InvalidOperation, ValueError) as exc:
            errors.append(Issue(lineno, f"MalformedRow: {exc}"))
            continue
        if country in seen:
            errors.append(
                Issue(lineno, f"DuplicateCountry: {country} already defined on line {seen[country]}")
            )
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
    warnings: list[Issue] = []
    rates: list[ExchangeRate] = []
    seen: dict[tuple[str, str], int] = {}
    codes = _Codes()
    for lineno, cells in scan.rows:
        if len(cells) != 4:
            errors.append(Issue(lineno, f"MalformedRow: expected 4 columns, got {len(cells)}"))
            continue
        base, quote, rate_text, as_of = map(str.strip, cells)
        try:
            rate = ExchangeRate(
                base=codes[base],
                quote=codes[quote],
                rate=_finite(rate_text),
                as_of=as_of or None,
            )
        except NonPositiveInput as exc:
            errors.append(Issue(lineno, f"NonPositiveInput: {exc}"))
            continue
        except (InvalidOperation, ValueError) as exc:
            errors.append(Issue(lineno, f"MalformedRow: {exc}"))
            continue
        key = (rate.base.code, rate.quote.code)
        if key in seen:
            errors.append(
                Issue(lineno, f"DuplicatePair: {key[0]}->{key[1]} already defined on line {seen[key]}")
            )
            continue
        seen[key] = lineno
        rates.append(rate)
    if errors:
        return RateTable(), IngestReport(0, errors=tuple(errors))
    table = RateTable(rates)
    for fwd, back, product in table.reciprocal_mismatches():
        lineno = max(
            seen[(fwd.base.code, fwd.quote.code)], seen[(back.base.code, back.quote.code)]
        )
        warnings.append(
            Issue(
                lineno,
                f"reciprocal rates {fwd.base}->{fwd.quote} and {back.base}->{back.quote} "
                f"multiply to {product}, expected 1",
            )
        )
    return table, IngestReport(len(rates), warnings=tuple(warnings))


def load_basket(path, known_currencies=None) -> tuple[list[Basket], IngestReport]:
    """Load price quotes grouped by (country, currency) context.

    When ``known_currencies`` is given, rows in other currencies are
    rejected with UnknownCurrency.  At most one salary row per group.
    """
    known = None if known_currencies is None else {str(c) for c in known_currencies}
    scan = _read_table(path, _BASKET_HEADER)
    errors = scan.errors
    groups: dict[tuple[str, str], list] = {}  # (country, code) -> [items, salary]
    codes = _Codes()
    for lineno, cells in scan.rows:
        if len(cells) != 6:
            errors.append(Issue(lineno, f"MalformedRow: expected 6 columns, got {len(cells)}"))
            continue
        country, code, item, unit, amount_text, role = map(str.strip, cells)
        if role not in ("item", "salary"):
            errors.append(Issue(lineno, f"MalformedRow: role must be item or salary, got {role!r}"))
            continue
        if known is not None and code not in known:
            errors.append(Issue(lineno, f"UnknownCurrency: {code} is not in the known set"))
            continue
        try:
            quote = PriceQuote(item, unit, codes[code], _finite(amount_text))
        except NonPositiveInput as exc:
            errors.append(Issue(lineno, f"NonPositiveInput: {exc}"))
            continue
        except (InvalidOperation, ValueError) as exc:
            errors.append(Issue(lineno, f"MalformedRow: {exc}"))
            continue
        group = groups.get((country, code))
        if group is None:
            group = groups[country, code] = [[], None]
        if role == "salary":
            if group[1] is not None:
                errors.append(Issue(lineno, f"MalformedRow: duplicate salary row for {country}"))
                continue
            group[1] = quote
        else:
            group[0].append(quote)
    if errors:
        return [], IngestReport(0, errors=tuple(errors))
    baskets = [
        Basket(country=country, currency=codes[code], items=tuple(items), salary=salary)
        for (country, code), (items, salary) in groups.items()
    ]
    return baskets, IngestReport(sum(len(b.items) + (1 if b.salary else 0) for b in baskets))


def load_series(
    path,
    currency: CurrencyCode = CurrencyCode("USD"),
    std: TimeStandard = TimeStandard(),
) -> tuple[AggregateSeries | None, IngestReport]:
    """Load a yearly aggregate series; m1 and gdp honour any declared scale.

    The file format carries no currency column, so the caller names the
    series currency (default USD).
    """
    scan = _read_table(path, _SERIES_HEADER, optional=("events",))
    errors = scan.errors
    scale = _scale_factor(scan, errors)
    years: list[AggregateYear] = []
    last_year: int | None = None
    for lineno, cells in scan.rows:
        if len(cells) not in (4, 5):
            errors.append(Issue(lineno, f"MalformedRow: expected 4 or 5 columns, got {len(cells)}"))
            continue
        year_text, m1_text, gdp_text, pop_text = map(str.strip, cells[:4])
        events = cells[4].strip() if len(cells) == 5 else ""
        try:
            year = AggregateYear(
                int(year_text), _finite(m1_text) * scale, _finite(gdp_text) * scale,
                int(pop_text), events,
            )
        except NonPositiveInput as exc:
            errors.append(Issue(lineno, f"NonPositiveInput: {exc}"))
            continue
        except (InvalidOperation, ValueError) as exc:
            errors.append(Issue(lineno, f"MalformedRow: {exc}"))
            continue
        if last_year is not None and year.year <= last_year:
            errors.append(
                Issue(lineno, f"NonMonotoneYears: {year.year} does not follow {last_year}")
            )
            continue
        last_year = year.year
        years.append(year)
    if not errors and not years:
        errors.append(Issue(scan.header_line or 1, "EmptySeries: no data rows"))
    if errors:
        return None, IngestReport(0, errors=tuple(errors))
    return AggregateSeries(currency=currency, years=tuple(years), std=std), IngestReport(len(years))


def _plain(value: Decimal) -> str:
    """Fixed-point text of a decimal, never scientific notation.

    ``str`` is several times cheaper than ``format(value, "f")`` and gives
    the same text unless it switches to an exponent.
    """
    text = str(value)
    return text if "E" not in text else format(value, "f")


def write_economies(path, snapshots) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(_ECONOMIES_HEADER)
        for s in snapshots:
            out.writerow([s.country, s.currency.code, _plain(s.gdp), s.population, s.as_of.isoformat()])


def write_rates(path, table: RateTable) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(_RATES_HEADER)
        for r in table:
            out.writerow([r.base.code, r.quote.code, _plain(r.rate), r.as_of.isoformat() if r.as_of else ""])


def write_basket(path, baskets) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(_BASKET_HEADER)
        for b in baskets:
            for q in b.items:
                out.writerow([b.country, b.currency.code, q.item, q.unit, _plain(q.amount), "item"])
            if b.salary is not None:
                s = b.salary
                out.writerow([b.country, b.currency.code, s.item, s.unit, _plain(s.amount), "salary"])


def write_series(path, series: AggregateSeries) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(_SERIES_HEADER + ["events"])
        for y in series.years:
            out.writerow([y.year, _plain(y.m1), _plain(y.gdp), y.population, y.events])
