"""Deterministic table rendering with per-column rounding rules.

Every figure is computed in ``core._FIGURES``, the 28-digit context of
:mod:`monmin.core`, whatever the caller's ``decimal`` context: the
builders below make their rows in it, a block at a time inside
:class:`RowView`.  Each figure is rounded here once, for display, with
half-away-from-zero ties, by one ``quantize`` under this module's own
display context.  So the caller's context (precision, rounding mode,
traps, exponent letter) changes no cell, and a cell wider than 28 digits
prints every digit; the plot data shows each 28-digit figure as it is.
Every input a loader or flag gives is in the input range, so no figure
made from them leaves that context's exponent range; a figure made from
values a library caller builds past it raises ``decimal.Overflow``.
Two output variants exist: CSV for machines and aligned text for humans.
Identical inputs always produce byte-identical output.

Builders assemble the six standard report tables (per-country minute
values, cross-rate minute values, commodity and food baskets in minutes,
percent-of-salary, and the yearly M1 series) and the two basket listings
(every quote in minutes, every quote as a percent of its salary).  The
plot-data file for the series figure is one more table, of verbatim
columns whose amounts its view gives as fixed-point text, and leaves
through :func:`write_table` like every table.  Every builder checks its input
before it returns.  All of them except table 2, which is as small as its
rate table, return a :class:`RowView`: its rows are made a block at a
time as they are written, so a table is never held while it is written.
A view hands the writer each block's columns, one sequence of values per
column, with no tuple or dict per row between them; the tall tables and
listings build each column with C-level ``map`` calls over the loaded
values, and only the wide tables 3, 4 and 4b make rows and turn them into
columns.  Reading a view (iterating or indexing it) still gives each row
as a dict.  Rows given as mappings, such as table 2's list, are
shape-checked and turned into columns a block at a time.

A column's rule becomes text in one place, ``_rule_columns``: it gives
each column its cell formatter and its passes, and gives
:func:`format_cell` its formatter.  Tables are written a block of about
``_BLOCK_CELLS`` cells at a time.  Each block is formatted
column by column: a run of adjacent columns with one rule and one cell
type goes through one C-level pass (``quantize`` then scientific text for
decimals, ``int.__repr__`` for whole numbers at 0 decimals), and any run
whose pass could print other text than the cell formatter is formatted
cell by cell with it instead.  A block's lines go out in one write;
cells ``csv.writer`` would quote are quoted the same way, and a block it
treats differently across Python versions goes to ``csv.writer`` itself.
If a block's rows cannot be made or formatted, it is redone a row at a
time, so the rows before the failing one are written before its error is
raised.
"""
from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_HALF_UP,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    localcontext,
)
from enum import Enum
from itertools import accumulate, chain, groupby, repeat
from operator import attrgetter, eq, itemgetter, lt, truediv
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Mapping, Sequence, TextIO

from .core import (
    _FIGURES,
    _ZERO,
    CmSource,
    MonMinValue,
    RateTable,
    TimeStandard,
    as_decimal,
    cross_cm,
    invert_cm,
)
from .errors import CurrencyMismatch, NonPositiveInput, ShapeMismatch, UnknownCurrency
from .ingest import Basket, _plain, _sci_text

if TYPE_CHECKING:  # only the series functions import it
    from .series import AggregateSeries, ExtremaReport

__all__ = [
    "ColumnRule",
    "TableId",
    "TableSpec",
    "build_basket_listing",
    "build_percent_listing",
    "build_table1",
    "build_table2",
    "build_table3",
    "build_table4",
    "build_table4b",
    "build_table5",
    "emit_plot_data",
    "render_table",
    "round_half_away",
    "round_significant",
    "write_plot_data",
    "write_table",
]

_BILLION = Decimal("1e9")


class TableId(Enum):
    T1 = "1"
    T2 = "2"
    T3 = "3"
    T4 = "4"
    T4B = "4b"
    T5 = "5"
    BASKET = "basket"
    PERCENT = "percent"
    PLOT = "plot"


@dataclass(frozen=True)
class ColumnRule:
    """One column's rounding rule; with neither field set, cells pass verbatim."""

    name: str
    decimals: int | None = None
    sig_figures: int | None = None

    def __post_init__(self):
        if self.decimals is not None and self.sig_figures is not None:
            raise ValueError(f"column {self.name}: decimals and sig_figures are exclusive")
        if self.decimals is not None and self.decimals < 0:
            raise ValueError(f"column {self.name}: decimals must be >= 0")
        if self.sig_figures is not None and self.sig_figures < 1:
            raise ValueError(f"column {self.name}: sig_figures must be >= 1")

    @property
    def numeric(self) -> bool:
        return self.decimals is not None or self.sig_figures is not None


@dataclass(frozen=True)
class TableSpec:
    """A table identity plus exactly one rounding rule per column."""

    table_id: TableId
    columns: tuple[ColumnRule, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in table {self.table_id.value}")


# Display rounding only: wide enough to print every digit of a cell, whatever
# the caller's context.  No arithmetic runs under it, and its flags are never read.
# Every field is named, so nothing is taken from ``decimal.DefaultContext``.
_CELLS = Context(
    prec=MAX_PREC,
    rounding=ROUND_HALF_UP,
    Emin=MIN_EMIN,
    Emax=MAX_EMAX,
    capitals=1,
    clamp=0,
    flags=[],
    traps=[InvalidOperation, DivisionByZero, Overflow],
)


def _rounded(value: Decimal, quantum: Decimal) -> Decimal:
    """``value`` quantized to ``quantum``, ties away from zero, under the display context, never -0."""
    rounded = value.quantize(quantum, ROUND_HALF_UP, _CELLS)
    return rounded if rounded else rounded.copy_abs()  # avoid "-0.00"


def round_half_away(value: Decimal, decimals: int) -> Decimal:
    """Round to a fixed number of decimals, ties away from zero, under the display context."""
    return _rounded(as_decimal(value), Decimal(1).scaleb(-decimals, _CELLS))


def round_significant(value: Decimal, figures: int) -> Decimal:
    """Round to a number of significant digits, ties away from zero, under the display context."""
    value = as_decimal(value)
    if value == 0:
        return Decimal(0)
    quantum = Decimal(1).scaleb(value.adjusted() - figures + 1, _CELLS)
    return value.quantize(quantum, ROUND_HALF_UP, _CELLS)


def _verbatim(value) -> str:
    return "" if value is None else str(value)


def _significant(value, figures: int) -> str:
    text = format(round_significant(value, figures), "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


def format_cell(rule: ColumnRule, value) -> str:
    return _rule_columns([rule])[0][0](value)


# ---------------------------------------------------------------------------
# the block writer: rows are formatted and written a bounded block at a time
#
# A pass turns many cells into text in one C-level ``map``.  It raises
# ``TypeError`` or ``ValueError``, or returns None, wherever its texts could
# differ from the column's own cell formatter, which then formats those cells
# one by one: so a pass changes no byte.

# Cells in one block.  A block's values, their texts and its joined lines are
# held together while it is written, so this bounds the writer's memory.
_BLOCK_CELLS = 1024


def _fixed_pass(quantum: Decimal) -> Callable[[Sequence], list | None]:
    """Decimals rounded to ``quantum``; None where a text holds "-": "-0", or "E-" (never "E+" once rounded)."""

    def texts(cells):
        rounded = map(Decimal.quantize, cells, repeat(quantum), repeat(ROUND_HALF_UP), repeat(_CELLS))
        texts = list(map(_sci_text, rounded))
        return None if "-" in "".join(texts) else texts

    return texts


def _int_pass(cells) -> list:
    """Whole numbers at 0 decimals; ``int.__repr__`` refuses any other type, and too many digits."""
    return list(map(int.__repr__, cells))


def _plain_pass(cells) -> list:
    """Decimals at full precision: scientific text where it is fixed-point, else ``format(value, "f")``."""
    texts = list(map(_sci_text, cells))
    if "E" in "".join(texts):
        texts = list(map(Decimal.__format__, cells, repeat("f")))
    return texts


def _verbatim_pass(cells) -> Sequence:
    """Cells as they are: the cells themselves when each is exactly a ``str``, else ``str``, and "" for None."""
    if {*map(type, cells)} == {str}:
        return cells
    return list(map(_verbatim if None in cells else str, cells))


_VERBATIM = (_verbatim, lambda kind: _verbatim_pass)


def _rule_columns(rules: Sequence[ColumnRule]) -> list[tuple]:
    """Each column's cell formatter, and the pass it takes for a cell type.

    The only code that turns a rule into cell text.  Columns with the same
    decimals share one formatter and one pass, so that adjacent ones form
    one run.
    """
    fixed: dict[int, tuple] = {}
    columns = []
    for rule in rules:
        decimals = rule.decimals
        if decimals is not None:
            if decimals not in fixed:
                quantum = Decimal(1).scaleb(-decimals, _CELLS)
                passes = {Decimal: _fixed_pass(quantum)}
                if not decimals:
                    passes[int] = _int_pass
                cell = lambda value, quantum=quantum: _plain(_rounded(as_decimal(value), quantum))
                fixed[decimals] = (cell, passes.get)
            columns.append(fixed[decimals])
        elif rule.sig_figures is not None:
            columns.append((lambda value, figures=rule.sig_figures: _significant(value, figures), {}.get))
        else:
            columns.append(_VERBATIM)
    return columns


class _Plan:
    """How the columns of a block become text: one pass per run of like columns where it can.

    ``columns`` holds each column's ``(cell, pass_for)``: ``cell`` formats
    one value, and ``pass_for(type)`` is the pass for cells of that type, or
    None.  The runs of a block follow the types of its first row, found once
    per distinct row of types.  A block is given as its columns.
    """

    __slots__ = ("cells", "verbatim", "_pass_for", "_runs")

    def __init__(self, columns: Sequence[tuple]):
        self.cells = [cell for cell, _ in columns]
        self.verbatim = [i for i, cell in enumerate(self.cells) if cell is _verbatim]
        self._pass_for = [pass_for for _, pass_for in columns]
        self._runs: dict[tuple, list] = {}

    def _runs_for(self, columns: list[Sequence]) -> list:
        kinds = tuple(map(type, map(itemgetter(0), columns)))
        runs = self._runs.get(kinds)
        if runs is None:
            passes = [pass_for(kind) for pass_for, kind in zip(self._pass_for, kinds)]
            runs, start = [], 0
            for fast, group in groupby(passes):
                stop = start + len(list(group))
                runs.append((fast, start, stop))
                start = stop
            self._runs[kinds] = runs
        return runs

    def texts(self, columns: list[Sequence], count: int) -> list[Sequence[str]]:
        """Each column's texts for a block of ``count`` rows, at least one."""
        out: list[Sequence[str]] = []
        for fast, start, stop in self._runs_for(columns):
            texts = None
            if fast is not None:
                cells = columns[start] if stop - start == 1 else list(chain.from_iterable(columns[start:stop]))
                try:
                    texts = fast(cells)
                except (TypeError, ValueError):
                    pass
            if texts is None:
                out.extend([list(map(self.cells[i], columns[i])) for i in range(start, stop)])
            elif stop - start == 1:
                out.append(texts)
            else:
                out.extend(zip(*[iter(texts)] * count))  # back into columns of ``count`` texts
        return out


def _spans(count: int, width: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of each block of ``count`` rows of ``width`` cells.

    A block holds about ``_BLOCK_CELLS`` cells, and at least one row.
    """
    size = max(1, _BLOCK_CELLS // max(1, width))
    return ((start, min(start + size, count)) for start in range(0, count, size))


def _table_rows(columns: list[Sequence[str]], count: int) -> Iterator[tuple]:
    """A block's texts as rows again; a table of no columns still has its rows."""
    return zip(*columns) if columns else repeat((), count)


def _quoted(text: str) -> str:
    """A cell as ``csv.writer`` writes it, quoting on "," '"' or a line feed."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_block(sink: TextIO, writer, plan: _Plan, columns: Callable, start: int, stop: int) -> None:
    """Make and format rows ``start`` to ``stop - 1`` and write their lines with one ``sink.write``.

    When making or formatting the block raises, it is redone a row at a
    time, so the rows before the failing one are written before its error
    is raised.
    Verbatim cells with a comma, quote or line feed are quoted as
    ``csv.writer`` quotes them.  A block with a carriage return or a NUL in
    a verbatim cell, and a table of fewer than two columns, go to
    ``csv.writer`` itself: its rules for those differ between Python
    versions, and it quotes a row's lone empty cell.
    """
    try:
        texts = plan.texts(columns(start, stop), stop - start)
    except Exception:  # any error: the row that raises it alone raises it again
        if stop - start == 1:
            raise
        for i in range(start, stop):
            _write_block(sink, writer, plan, columns, i, i + 1)
        return
    probes = {i: "".join(texts[i]) for i in plan.verbatim}
    if len(texts) < 2 or any("\r" in probe or "\0" in probe for probe in probes.values()):
        writer.writerows(_table_rows(texts, stop - start))
        return
    for i, probe in probes.items():
        if "," in probe or '"' in probe or "\n" in probe:
            texts[i] = list(map(_quoted, texts[i]))
    lines = list(map(",".join, zip(*texts)))
    lines.append("")  # the last line's line feed
    sink.write("\n".join(lines))


def _shape_mismatch(spec: TableSpec, names: list[str], index: int, row) -> ShapeMismatch:
    return ShapeMismatch(
        f"table {spec.table_id.value} row {index}: expected columns {names}, "
        f"got {sorted(row.keys())}"
    )


def _checked_values(spec: TableSpec, names: list[str], rows: Collection[Mapping[str, object]], start: int):
    """Each mapping's values in column order, once it is shown to hold exactly those columns; row ``start`` first."""
    width = len(names)
    values = itemgetter(*names) if width > 1 else lambda row: [row[n] for n in names]
    for index, row in enumerate(rows, start):
        # the spec's names are distinct: the right number of keys, all found,
        # are exactly the spec's columns
        if len(row) != width:
            raise _shape_mismatch(spec, names, index, row)
        try:
            yield values(row)
        except KeyError:
            raise _shape_mismatch(spec, names, index, row) from None


def write_table(
    spec: TableSpec, rows: Collection[Mapping[str, object]], sink: TextIO, fmt: str = "csv"
) -> None:
    """Write rows under a spec to a text sink as CSV or aligned text.

    Every row must supply exactly the spec's columns.  A :class:`RowView`
    made for the spec's columns hands over each block's columns as they are
    made; any other rows are mappings, shape-checked and turned into
    columns a block at a time.  CSV goes out a block of rows at a time as
    they are formatted; text output needs every cell first to size its
    columns.
    """
    if fmt not in ("csv", "text"):
        raise ValueError(f"unknown format {fmt!r}")
    names = [c.name for c in spec.columns]
    if isinstance(rows, RowView) and rows.names == tuple(names):
        columns = rows.columns
    else:
        rows = rows if isinstance(rows, (Sequence, RowView)) else list(rows)
        columns = lambda start, stop: list(zip(*_checked_values(spec, names, rows[start:stop], start)))
    count = len(rows)
    plan = _Plan(_rule_columns(spec.columns))

    if fmt == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(names)
        for start, stop in _spans(count, len(names)):
            _write_block(sink, writer, plan, columns, start, stop)
        return

    texts: list[list[str]] = [[] for _ in names]  # each column's cells, in row order
    for start, stop in _spans(count, len(names)):
        for column, cells in zip(texts, plan.texts(columns(start, stop), stop - start)):
            column.extend(cells)
    widths = [max([len(name), *map(len, column)]) for name, column in zip(names, texts)]
    for row in chain([names], _table_rows(texts, count)):
        padded = [
            cell.rjust(widths[i]) if spec.columns[i].numeric else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ]
        sink.write("  ".join(padded).rstrip() + "\n")


def render_table(spec: TableSpec, rows: Collection[Mapping[str, object]], fmt: str = "csv") -> str:
    """:func:`write_table` into a string."""
    buffer = io.StringIO()
    write_table(spec, rows, buffer, fmt)
    return buffer.getvalue()


class RowView:
    """A table's rows, made a block at a time when they are read, with their count known up front.

    ``columns(start, stop)`` makes rows ``start`` to ``stop - 1`` as one
    sequence of values per spec column, in the order :attr:`names` holds,
    or raises if one of those rows cannot be made.  Each block is made in
    ``core._FIGURES``, whatever the caller's context.  :func:`write_table`
    formats those columns as they are made.  Reading the view gives dicts
    of the same values: iteration makes every row in turn, a block at a
    time, and indexing (negative indices and slices too) only the rows
    asked for.  Each read makes the rows again, so a view can be read any
    number of times.
    """

    __slots__ = ("names", "_make", "_count")

    def __init__(self, spec: TableSpec, columns: Callable[[int, int], list[Sequence]], count: int):
        self.names = tuple(c.name for c in spec.columns)
        self._make = columns
        self._count = count

    def columns(self, start: int, stop: int) -> list[Sequence]:
        """Rows ``start`` to ``stop - 1``, one sequence of values per column."""
        with localcontext(_FIGURES):
            return self._make(start, stop)

    def __len__(self) -> int:
        return self._count

    def _row(self, index: int) -> dict:
        return dict(zip(self.names, map(itemgetter(0), self.columns(index, index + 1))))

    def __iter__(self) -> Iterator[dict]:
        for start, stop in _spans(self._count, len(self.names)):
            for values in zip(*self.columns(start, stop)):
                yield dict(zip(self.names, values))

    def __getitem__(self, index):
        picked = range(self._count)[index]
        if isinstance(picked, range):
            return [self._row(i) for i in picked]
        return self._row(picked)


# ---------------------------------------------------------------------------
# table builders: full-precision rows plus the pinned rounding profile


_SNAPSHOT_FIELDS = ("country", "currency.code", "gdp", "population")


def build_table1(snapshots, std: TimeStandard = TimeStandard()):
    """Per-country minute values from GDP and population.

    A row divides ``gdp / population`` once, for the per-capita column,
    and that quotient by the minutes per year for ``cm``: the division
    :func:`compute_cm` makes, left to right, so the same figure to the last
    digit, with no :class:`MonMinValue` made per row.  A ``cm`` that
    underflows to zero is refused with the minute value's own message when
    its block is made.  No loaded snapshot can make one: its inputs are
    bounded (README derives why); a snapshot a library caller builds can.
    """
    spec = TableSpec(
        TableId.T1,
        (
            ColumnRule("country"),
            ColumnRule("currency"),
            ColumnRule("gdp", decimals=0),
            ColumnRule("population", decimals=0),
            ColumnRule("gdp_per_capita", decimals=0),
            ColumnRule("cm", decimals=7),
            ColumnRule("source"),
        ),
    )
    snapshots = tuple(snapshots)
    minutes = std.minutes_per_year
    source = CmSource.COMPUTED_FROM_GDP

    def columns(start, stop):
        block = snapshots[start:stop]
        country, code, gdp, population = (list(map(attrgetter(name), block)) for name in _SNAPSHOT_FIELDS)
        per_capita = list(map(truediv, gdp, population))
        cm = list(map(truediv, per_capita, repeat(minutes)))
        if not all(map(lt, repeat(_ZERO), cm)):
            for snapshot, value in zip(block, cm):
                if not _ZERO < value:
                    MonMinValue(snapshot.currency, value, source)  # raises its refusal
        return [country, code, gdp, population, per_capita, cm, [source.value] * len(block)]

    return spec, RowView(spec, columns, len(snapshots))


def build_table2(
    base_cm: MonMinValue,
    rates: RateTable,
    overrides: Mapping[str, MonMinValue] | None = None,
):
    """Minute values across currencies from one base value and a rate table.

    A quote currency with an override uses that value verbatim (and its
    provenance label); otherwise the value is derived through the rate.
    The inverse column is minutes per one unit of the currency.
    """
    overrides = overrides or {}
    spec = TableSpec(
        TableId.T2,
        (
            ColumnRule("currency"),
            ColumnRule("rate"),
            ColumnRule("cm", sig_figures=6),
            ColumnRule("source"),
            ColumnRule("inverse_cm", decimals=2),
        ),
    )
    quotes = {rate.quote.code for rate in rates}
    for code in overrides:
        if code not in quotes:
            raise UnknownCurrency(f"override {code} has no rate row")

    def made():  # (code, rate text, minute value) of the base row, then of each rate row
        yield base_cm.currency.code, "1", base_cm
        for rate in rates:
            if rate.base != base_cm.currency:
                raise CurrencyMismatch(
                    f"rate {rate.base}->{rate.quote} does not start from {base_cm.currency}"
                )
            yield rate.quote.code, _plain(rate.rate), overrides.get(rate.quote.code) or cross_cm(base_cm, rate)

    rows = [
        {"currency": code, "rate": rate, "cm": cm.value, "source": cm.source.value, "inverse_cm": invert_cm(cm)}
        for code, rate, cm in made()
    ]
    return spec, rows


_LABEL = attrgetter("item", "unit")
_ITEM, _UNIT, _AMOUNT = attrgetter("item"), attrgetter("unit"), attrgetter("amount")


def _aligned_amounts(baskets: Sequence[Basket]):
    """The first basket's (item, unit) labels, and each basket's amounts in that order.

    A basket that lists the first one's distinct labels in the same order
    gives its amounts as they stand.  Any other gets a lookup dict, dropped
    before the next one is built.  A column holds the basket's own amounts,
    so no figure is copied.  A basket that lists one label twice is refused,
    naming the label: a row per label could show only one of its amounts.
    """
    if not baskets:
        return [], []
    order = list(map(_LABEL, baskets[0].items))
    keys = set(order)
    columns = []
    for basket in baskets:
        labels = list(map(_LABEL, basket.items))
        if labels == order and len(keys) == len(order):
            columns.append(list(map(_AMOUNT, basket.items)))
            continue
        index = dict(zip(labels, map(_AMOUNT, basket.items)))
        if len(index) != len(labels):
            repeated = next(label for label in labels if labels.count(label) > 1)
            raise ShapeMismatch(f"basket {basket.country}/{basket.currency} lists {repeated} more than once")
        if len(labels) != len(order) or not index.keys() >= keys:
            raise ShapeMismatch(
                f"basket {basket.country}/{basket.currency} does not carry the "
                f"same items as {baskets[0].country}/{baskets[0].currency}"
            )
        columns.append([index[key] for key in order])
    return order, columns


def _cm_for(basket: Basket, cms: Mapping[str, MonMinValue]) -> MonMinValue:
    """A basket's minute value, looked up and checked against its currency once.

    Every quote of a :class:`Basket` is in the basket's currency, so this one
    check stands for the one :func:`to_monmin` makes per quote, and each
    quote then costs one division: ``amount / value``.
    """
    cm = cms.get(basket.currency.code)
    if cm is None:
        raise UnknownCurrency(f"no minute value for currency {basket.currency}")
    if cm.currency != basket.currency:
        raise CurrencyMismatch(
            f"price in {basket.currency} cannot use a {cm.currency} minute value"
        )
    return cm


def _percent(amount: Decimal, salary: Decimal) -> Decimal:
    """An amount as a percent of a salary, both in minutes of value 1: ``100 * (amount / 1) / salary``.

    Dividing by 1 rounds an amount of more than 28 digits in the figures
    context, as :func:`_salary_minutes` rounds the salary and as
    :func:`to_monmin` at value 1 would.  A loaded amount is in the input
    range; for a quote a library caller builds below the decimal range the
    step matters more: without it the amount keeps the digits the salary
    lost, and a salary row of ``1.5E-1000026`` would read 75, as
    ``150E-1000026 / 2E-1000026``.
    """
    return 100 * (amount / 1) / salary


def _label_rows(labels: list, amounts: list[list], divisors: list, figure: Callable,
                raw: bool = False) -> Callable[[int, int], list]:
    """A wide table's ``columns``, a row per label and a few rows to a block, the block transposed.

    A row is its label's item and unit, each basket's amount when ``raw``
    is set, then ``figure(amount, divisor)`` for each basket.
    """
    def make(i):
        row = [column[i] for column in amounts]
        return (*labels[i], *(row if raw else ()), *map(figure, row, divisors))

    return lambda start, stop: list(zip(*map(make, range(start, stop))))


def _salary_minutes(basket: Basket) -> Decimal:
    """A basket's salary under a unit minute value: the denominator of its percents.

    The minute value cancels in a percent of salary, so prices are taken in
    minutes of value 1, ``100 * (amount / 1) / (salary / 1)``: exactly what
    :func:`percent_of_salary` gives for :func:`to_monmin` prices at value 1.
    """
    if basket.salary is None:
        raise ShapeMismatch(f"basket {basket.country} has no salary row")
    salary = _FIGURES.divide(basket.salary.amount, 1)
    if salary <= 0:
        raise NonPositiveInput(f"salary must be > 0, got {salary}")
    return salary


def build_table3(baskets: Sequence[Basket], cms: Mapping[str, MonMinValue]):
    """One market's commodity prices, raw and in minutes, per currency context.

    A row per (item, unit) label: a basket that lists one label twice is
    refused with :class:`ShapeMismatch` naming it.
    """
    codes = [b.currency.code for b in baskets]
    if len(codes) != len(set(codes)):
        raise ShapeMismatch("table 3 needs one basket per currency context")
    prices = [f"price_{code}" for code in codes]
    minutes = [f"monmin_{code}" for code in codes]
    columns = [ColumnRule("item"), ColumnRule("unit")]
    columns += [ColumnRule(name, decimals=2) for name in prices]
    columns += [ColumnRule(name, decimals=0) for name in minutes]
    spec = TableSpec(TableId.T3, tuple(columns))
    values = [_cm_for(b, cms).value for b in baskets]
    labels, amounts = _aligned_amounts(baskets)
    return spec, RowView(spec, _label_rows(labels, amounts, values, truediv, raw=True), len(labels))


def _country_columns(table_id: TableId, baskets: Sequence[Basket], decimals: int):
    """A spec of item, unit and a column per basket's country, each country allowed once."""
    countries = [b.country for b in baskets]
    if len(countries) != len(set(countries)):
        raise ShapeMismatch(f"table {table_id.value} needs one basket per country")
    columns = [ColumnRule("item"), ColumnRule("unit")]
    columns += [ColumnRule(country, decimals=decimals) for country in countries]
    return TableSpec(table_id, tuple(columns))


def _with_salary_row(baskets: Sequence[Basket], labels: list, amounts: list[list]) -> None:
    """Each basket's salary amount appended as the last row, when the baskets carry one.

    Either every basket carries a salary row or none does; anything else is
    refused with :class:`ShapeMismatch`.
    """
    salaries = [b.salary for b in baskets]
    if any(s is not None for s in salaries):
        if any(s is None for s in salaries):
            raise ShapeMismatch("either every basket carries a salary row or none does")
        labels.append((salaries[0].item, salaries[0].unit))
        for column, salary in zip(amounts, salaries):
            column.append(salary.amount)


def build_table4(baskets: Sequence[Basket], cms: Mapping[str, MonMinValue]):
    """Food-basket prices and salaries in minutes, one column per country.

    A row per (item, unit) label: a basket that lists one label twice is
    refused with :class:`ShapeMismatch` naming it.
    """
    spec = _country_columns(TableId.T4, baskets, decimals=0)
    values = [_cm_for(b, cms).value for b in baskets]
    labels, amounts = _aligned_amounts(baskets)
    _with_salary_row(baskets, labels, amounts)
    return spec, RowView(spec, _label_rows(labels, amounts, values, truediv), len(labels))


def build_table4b(baskets: Sequence[Basket]):
    """Basket items as percent of the salary; minute values cancel out.

    A row per (item, unit) label: a basket that lists one label twice is
    refused with :class:`ShapeMismatch` naming it.  The salary row is the
    last, made like every other, so it reads 100.
    """
    spec = _country_columns(TableId.T4B, baskets, decimals=2)
    salaries = [_salary_minutes(b) for b in baskets]
    labels, amounts = _aligned_amounts(baskets)
    _with_salary_row(baskets, labels, amounts)
    return spec, RowView(spec, _label_rows(labels, amounts, salaries, _percent), len(labels))


def _quote_view(spec: TableSpec, baskets: Sequence[Basket], more: Callable) -> RowView:
    """A row per quote of every basket, in :meth:`Basket.quotes` order, made a block at a time.

    A row's first columns are its basket's country and currency code and
    its quote's item and unit.  ``more(k, quotes, roles)`` makes the other
    columns for a run of basket ``k``'s quotes, given with their roles.  A
    block finds its first basket by bisection over the baskets' running
    quote counts, then takes the baskets in turn.
    """
    ends = list(accumulate(b.quote_count for b in baskets))
    starts = [0, *ends[:-1]]

    def columns(start, stop):
        k, joined = bisect_right(ends, start), None
        while start < stop:
            basket, items = baskets[k], len(baskets[k].items)
            lo, hi = start - starts[k], min(stop, ends[k]) - starts[k]
            quotes = basket.items[lo:hi] if hi <= items else (*basket.items[lo:], basket.salary)
            roles = ["item"] * (min(hi, items) - lo) + ["salary"] * (hi - max(lo, items))
            made = [[basket.country] * len(quotes), [basket.currency.code] * len(quotes)]
            made += [list(map(_ITEM, quotes)), list(map(_UNIT, quotes)), *more(k, quotes, roles)]
            joined = made if joined is None else list(map(list.__add__, joined, made))
            start, k = ends[k], k + 1
        return joined

    return RowView(spec, columns, ends[-1] if ends else 0)


def build_basket_listing(baskets: Sequence[Basket], cms: Mapping[str, MonMinValue]):
    """Every quote of every basket in minutes, with its minute value's provenance."""
    spec = TableSpec(
        TableId.BASKET,
        (
            ColumnRule("country"),
            ColumnRule("currency"),
            ColumnRule("item"),
            ColumnRule("unit"),
            ColumnRule("amount"),
            ColumnRule("role"),
            ColumnRule("monmin", decimals=0),
            ColumnRule("cm_source"),
        ),
    )
    values = [_cm_for(basket, cms) for basket in baskets]

    def more(k, quotes, roles):
        amounts = list(map(_AMOUNT, quotes))
        minutes = list(map(truediv, amounts, repeat(values[k].value)))
        return [_plain_pass(amounts), roles, minutes, [values[k].source.value] * len(quotes)]

    return spec, _quote_view(spec, baskets, more)


def build_percent_listing(baskets: Sequence[Basket]):
    """Every quote of every basket, its salary included, as a percent of that salary.

    The first basket without a positive salary, in basket order, raises.
    """
    spec = TableSpec(
        TableId.PERCENT,
        (
            ColumnRule("country"),
            ColumnRule("currency"),
            ColumnRule("item"),
            ColumnRule("unit"),
            ColumnRule("percent", decimals=2),
        ),
    )
    salaries = [_salary_minutes(basket) for basket in baskets]

    def more(k, quotes, roles):
        return [list(map(_percent, map(_AMOUNT, quotes), repeat(salaries[k])))]

    return spec, _quote_view(spec, baskets, more)


def build_table5(series: AggregateSeries, minutes: Sequence[tuple[int, Decimal]] | None = None):
    """Yearly M1 and GDP in billions plus M1 in billions of minutes.

    ``minutes`` may pass in :func:`series_in_monmin` of the series when the
    caller already has it; it must hold one ``(year, value)`` per series
    year, in order, or :class:`ShapeMismatch` is raised.
    """
    spec = TableSpec(
        TableId.T5,
        (
            ColumnRule("year"),
            ColumnRule("m1_billions", decimals=0),
            ColumnRule("m1_monmin_billions", decimals=0),
            ColumnRule("gdp_billions", decimals=0),
            ColumnRule("events"),
        ),
    )
    minutes = _minutes_of(series, minutes)

    def columns(start, stop):
        year, *amounts = _series_columns(series, minutes, start, stop)
        billions = [list(map(truediv, amount, repeat(_BILLION))) for amount in amounts]
        return [year, *billions, list(map(attrgetter("events"), series.years[start:stop]))]

    return spec, RowView(spec, columns, len(series.years))


def _series_columns(series: AggregateSeries, minutes: Sequence[tuple[int, Decimal]], start: int, stop: int):
    """Year, m1, m1 in minutes and gdp of series years ``start`` to ``stop - 1``, a list each."""
    years = series.years[start:stop]
    year, m1, gdp = (list(map(attrgetter(name), years)) for name in ("year", "m1", "gdp"))
    return [year, m1, list(map(itemgetter(1), minutes[start:stop])), gdp]


def _minutes_of(series: AggregateSeries, minutes: Sequence[tuple[int, Decimal]] | None):
    """``minutes``, checked to hold one ``(year, value)`` per series year in order; by default the series' own."""
    if minutes is None:
        from .series import series_in_monmin

        return series_in_monmin(series)
    years = series.years
    if len(minutes) != len(years):
        raise ShapeMismatch(f"minutes hold {len(minutes)} years, the series {len(years)}")
    if not all(map(eq, map(itemgetter(0), minutes), map(attrgetter("year"), years))):
        i = next(i for i, (year, _) in enumerate(minutes) if year != years[i].year)
        raise ShapeMismatch(f"minutes row {i} is for {minutes[i][0]}, the series year is {years[i].year}")
    return minutes


def write_plot_data(
    series: AggregateSeries,
    sink: TextIO,
    extrema: ExtremaReport | None = None,
    minutes: Sequence[tuple[int, Decimal]] | None = None,
) -> None:
    """Write plot-data CSV to a text sink: year, raw M1, M1 in minutes, raw GDP, full precision.

    With an extrema report, a marker column labels peak/trough years.
    ``minutes`` may pass in :func:`series_in_monmin` of the series when the
    caller already has it; it must hold one ``(year, value)`` per series
    year, in order, or :class:`ShapeMismatch` is raised.  The plot data is a
    table of verbatim columns, its amounts given as fixed-point text, and
    goes out through :func:`write_table` like every table.
    """
    minutes = _minutes_of(series, minutes)
    names = ["year", "m1_currency", "m1_monmin", "gdp_currency"]
    markers = None
    if extrema is not None:
        markers = {**dict.fromkeys(extrema.troughs, "trough"), **dict.fromkeys(extrema.peaks, "peak")}
        names.append("extremum")
    spec = TableSpec(TableId.PLOT, tuple(map(ColumnRule, names)))

    def columns(start, stop):
        year, *amounts = _series_columns(series, minutes, start, stop)
        # every column as text, so that the verbatim pass hands the block back as it is
        block = [_verbatim_pass(year), *map(_plain_pass, amounts)]
        return block if markers is None else [*block, list(map(markers.get, year, repeat("")))]

    write_table(spec, RowView(spec, columns, len(series.years)), sink)


def emit_plot_data(
    series: AggregateSeries,
    extrema: ExtremaReport | None = None,
    minutes: Sequence[tuple[int, Decimal]] | None = None,
) -> str:
    """:func:`write_plot_data` into a string."""
    buffer = io.StringIO()
    write_plot_data(series, buffer, extrema, minutes)
    return buffer.getvalue()
