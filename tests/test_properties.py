import contextlib
import csv
import dataclasses
import decimal
import io
import json
import re
import tempfile
from decimal import Decimal as D
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from monmin import (
    AggregateSeries,
    AggregateYear,
    Basket,
    ColumnRule,
    CurrencyCode,
    EconomySnapshot,
    ExchangeRate,
    MonMinValue,
    PriceQuote,
    RateTable,
    TableId,
    TableSpec,
    TimeStandard,
    build_basket_listing,
    build_percent_listing,
    build_table3,
    build_table4,
    build_table4b,
    compute_cm,
    cross_cm,
    detect_extrema,
    emit_plot_data,
    load_basket,
    load_economies,
    load_rates,
    load_series,
    parity_rate,
    percent_of_salary,
    render_table,
    report,
    round_half_away,
    series_in_monmin,
    to_monmin,
    write_basket,
    write_economies,
    write_rates,
    write_series,
    write_table,
)
from monmin import ingest
from monmin.cli import main
from monmin.ingest import Issue, _plain
from monmin.report import format_cell

import test_ingest
from conftest import FIXTURES, GOLDEN
from oracles import (
    brute_force_extrema,
    reference_cell,
    reference_minutes,
    reference_percent,
    reference_plot_data,
    reference_render,
)

USD = CurrencyCode("USD")
CZK = CurrencyCode("CZK")
EUR = CurrencyCode("EUR")

gdps = st.decimals(min_value=D("0.01"), max_value=D("1e15"), places=2,
                   allow_nan=False, allow_infinity=False)
populations = st.integers(min_value=1, max_value=2_000_000_000)
cm_values = st.decimals(min_value=D("1e-9"), max_value=D("1e9"), places=9,
                        allow_nan=False, allow_infinity=False)
amounts = st.decimals(min_value=D("0"), max_value=D("1e12"), places=4,
                      allow_nan=False, allow_infinity=False)
positive_amounts = st.decimals(min_value=D("0.0001"), max_value=D("1e12"), places=4,
                               allow_nan=False, allow_infinity=False)
rates = st.decimals(min_value=D("1e-6"), max_value=D("1e6"), places=6,
                    allow_nan=False, allow_infinity=False)


def rel(a: D, b: D) -> D:
    if b == 0:
        return abs(a)
    return abs(a - b) / abs(b)


@given(rate=rates, ref_raw=positive_amounts, local_raw=positive_amounts,
       ref_cm=cm_values, local_cm=cm_values)
@settings(deadline=None)
def test_parity_fixed_point(rate, ref_raw, local_raw, ref_cm, local_cm):
    # re-quoting the local raw price at the parity/current ratio must land
    # exactly on the reference minute price
    ref_value = MonMinValue(USD, ref_cm)
    local_value = MonMinValue(CZK, local_cm)
    ref_price = to_monmin(PriceQuote("thing", "unit", USD, ref_raw), ref_value)
    local_price = to_monmin(PriceQuote("thing", "unit", CZK, local_raw), local_value)
    parity = parity_rate(ExchangeRate(USD, CZK, rate), ref_price, local_price)
    requoted = to_monmin(
        PriceQuote("thing", "unit", CZK, local_raw * parity / rate), local_value
    )
    assert rel(requoted.monmin, ref_price.monmin) <= D("1e-9")


@given(raw=amounts, salary_raw=positive_amounts, cm=cm_values)
@settings(deadline=None)
def test_percent_of_salary_cancels_the_minute_value(raw, salary_raw, cm):
    value = MonMinValue(USD, cm)
    price = to_monmin(PriceQuote("thing", "unit", USD, raw), value)
    salary = to_monmin(PriceQuote("salary", "month", USD, salary_raw), value)
    from_minutes = percent_of_salary(price, salary)
    from_raw = 100 * raw / salary_raw
    assert rel(from_minutes, from_raw) <= D("1e-12")


@given(value=cm_values, r1=rates, r2=rates)
@settings(deadline=None)
def test_cross_rate_composition_is_associative(value, r1, r2):
    usd = MonMinValue(USD, value)
    step1 = cross_cm(usd, ExchangeRate(USD, EUR, r1))
    step2 = cross_cm(step1, ExchangeRate(EUR, CZK, r2))
    direct = usd.value * (r1 * r2)
    assert rel(step2.value, direct) <= D("1e-12")


@given(gdp=gdps, population=populations, minutes=rates)
@settings(deadline=None)
def test_compute_cm_uses_the_configured_standard(gdp, population, minutes):
    snapshot = EconomySnapshot("X", USD, gdp, population, "2019-01-01")
    cm = compute_cm(snapshot, TimeStandard(minutes))
    assert rel(cm.value * population * minutes, gdp) <= D("1e-12")


values_with_ties = st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=60)
values_spread = st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=3, max_size=60)


@given(data=st.one_of(values_with_ties, values_spread))
@settings(deadline=None)
def test_detect_extrema_matches_brute_force(data):
    series = [(2000 + i, D(v)) for i, v in enumerate(data)]
    report = detect_extrema(series)
    peaks, troughs = brute_force_extrema(series)
    assert list(report.peaks) == peaks
    assert list(report.troughs) == troughs


@given(data=values_spread)
@settings(deadline=None)
def test_peaks_and_troughs_alternate_without_plateaus(data):
    deduped = [data[0]]
    for v in data[1:]:
        if v != deduped[-1]:
            deduped.append(v)
    assume(len(deduped) >= 3)
    series = [(2000 + i, D(v)) for i, v in enumerate(deduped)]
    report = detect_extrema(series)
    merged = sorted(
        [(y, "peak") for y in report.peaks] + [(y, "trough") for y in report.troughs]
    )
    kinds = [kind for _, kind in merged]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


@given(data=st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=40))
@settings(deadline=None)
def test_extrema_years_are_interior(data):
    series = [(1900 + i, D(v)) for i, v in enumerate(data)]
    report = detect_extrema(series)
    first, last = series[0][0], series[-1][0]
    for year in report.peaks + report.troughs:
        assert first < year < last


finite_decimals = st.decimals(min_value=D("-1e15"), max_value=D("1e15"),
                              allow_nan=False, allow_infinity=False)
cell_values = st.one_of(
    finite_decimals,
    st.sampled_from([D("0"), D("-0"), D("-0.000"), D("-0.0049"), D("0.5"), D("-2.5")]),
    st.integers(min_value=-10**15, max_value=10**15),
    finite_decimals.map(str),
    st.floats(min_value=-1e15, max_value=1e15, allow_nan=False, allow_infinity=False),
)


def _rendered(rule, value):
    text = render_table(TableSpec(TableId.T1, (rule,)), [{rule.name: value}])
    header, cell = text.splitlines()
    assert header == rule.name
    return cell


@given(value=cell_values, decimals=st.integers(min_value=0, max_value=8))
@settings(deadline=None)
def test_fixed_decimals_formatter_matches_reference(value, decimals):
    rule = ColumnRule("x", decimals=decimals)
    expected = reference_cell(value, decimals=decimals)
    assert format(round_half_away(value, decimals), "f") == expected
    assert format_cell(rule, value) == expected
    assert _rendered(rule, value) == expected


def _convert_stdout(argv) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert main(argv) == 0
    return sink.getvalue()


@given(
    amount=st.decimals(min_value=0, max_value=D("1e15"), allow_nan=False, allow_infinity=False),
    cm=st.decimals(min_value=D("1e-12"), max_value=D("1e6"), allow_nan=False, allow_infinity=False),
    decimals=st.integers(min_value=0, max_value=30),
)
@settings(deadline=None)
def test_convert_prints_what_the_caller_context_rule_printed(amount, cm, decimals):
    """Wherever the result fits in 28 digits, ``convert`` prints the bytes of the old rule:
    quantize under the default context, then the ``-0`` fix, then fixed-point text."""
    with decimal.localcontext(decimal.Context()):
        minutes = amount / cm
        try:
            rounded = minutes.quantize(D(1).scaleb(-decimals), decimal.ROUND_HALF_UP)
        except decimal.InvalidOperation:
            assume(False)  # more than 28 digits: the old rule refused it
    expected = format(rounded if rounded else rounded.copy_abs(), "f")
    argv = ["convert", "--amount", str(amount), "--cm", str(cm), "--decimals", str(decimals)]
    assert _convert_stdout(argv) == expected + "\n"


@given(
    negative=st.booleans(),
    coefficient=st.one_of(st.just(0), st.integers(min_value=0, max_value=10**30)),
    exponent=st.integers(min_value=-30, max_value=30),
)
def test_plain_text_is_fixed_point(negative, coefficient, exponent):
    value = D(f"{'-' if negative else ''}{coefficient}E{exponent}")
    assert _plain(value) == format(value, "f")


@given(value=cell_values, figures=st.integers(min_value=1, max_value=8))
@settings(deadline=None)
def test_significant_figures_formatter_matches_reference(value, figures):
    rule = ColumnRule("x", sig_figures=figures)
    expected = reference_cell(value, sig_figures=figures)
    assert format_cell(rule, value) == expected
    assert _rendered(rule, value) == expected


# Amounts of up to 40 significant digits: more than the 28-digit context
# holds, so every division and product below rounds.
def _long_decimals(min_coefficient=0):
    exact = st.builds(
        lambda coefficient, exponent: D(f"{coefficient}E{exponent}"),
        st.integers(min_value=min_coefficient, max_value=10**40 - 1),
        st.integers(min_value=-30, max_value=10),
    )
    if min_coefficient:
        return exact
    return st.one_of(exact, st.sampled_from([D("0"), D("-0"), D("0E-7"), D("-0.00")]))


_CODES = ["USD", "EUR", "CZK", "GBP", "JPY"]


@st.composite
def basket_sets(draw):
    """Aligned baskets, one per currency and country, each with a positive salary, plus their minute values."""
    codes = draw(st.lists(st.sampled_from(_CODES), min_size=1, max_size=4, unique=True))
    size = draw(st.integers(min_value=0, max_value=5))
    baskets, cms = [], {}
    for code in codes:
        currency = CurrencyCode(code)
        items = tuple(
            PriceQuote(f"item {i}", "kg", currency, draw(_long_decimals())) for i in range(size)
        )
        salary = PriceQuote("salary", "month", currency, draw(_long_decimals(min_coefficient=1)))
        baskets.append(Basket(f"Land {code}", currency, items, salary))
        cms[code] = MonMinValue(currency, draw(_long_decimals(min_coefficient=1)))
    return baskets, cms


def _same(got, want):
    assert got == want and str(got) == str(want)


@given(data=basket_sets())
@settings(deadline=None)
def test_basket_tables_match_per_quote_minutes(data):
    baskets, cms = data
    _, rows3 = build_table3(baskets, cms)
    _, rows4 = build_table4(baskets, cms)
    for basket in baskets:
        code, cm = basket.currency.code, cms[basket.currency.code]
        for row, quote in zip(rows3, basket.items):
            assert row["price_" + code] is quote.amount
            _same(row["monmin_" + code], reference_minutes(quote, cm))
        for row, quote in zip(rows4, basket.items + (basket.salary,)):
            _same(row[basket.country], reference_minutes(quote, cm))


@given(data=basket_sets())
@settings(deadline=None)
def test_percent_table_matches_per_quote_percents(data):
    baskets, _ = data
    _, rows = build_table4b(baskets)
    for basket in baskets:
        for row, quote in zip(rows, basket.items):
            _same(row[basket.country], reference_percent(quote, basket.salary))


@given(data=basket_sets())
@settings(deadline=None)
def test_listings_match_per_quote_references(data):
    baskets, cms = data
    quotes = [(b, q, role) for b in baskets
              for q, role in [(q, "item") for q in b.items] + [(b.salary, "salary")]]
    _, listing = build_basket_listing(baskets, cms)
    _, percents = build_percent_listing(baskets)
    assert len(listing) == len(percents) == len(quotes)
    for row, (basket, quote, role) in zip(listing, quotes):
        assert (row["country"], row["currency"], row["item"], row["role"]) == (
            basket.country, basket.currency.code, quote.item, role)
        assert row["amount"] == format(quote.amount, "f")
        _same(row["monmin"], reference_minutes(quote, cms[basket.currency.code]))
    for row, (basket, quote, _) in zip(percents, quotes):
        assert (row["country"], row["item"], row["unit"]) == (basket.country, quote.item, quote.unit)
        _same(row["percent"], reference_percent(quote, basket.salary))


verbatim_values = st.one_of(
    st.none(),
    st.integers(min_value=-10**20, max_value=10**20),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.sampled_from(list('ab ,"\n\r\'-')), max_size=8),
)


@given(
    rows=st.lists(st.tuples(verbatim_values, verbatim_values, finite_decimals), max_size=6),
    fmt=st.sampled_from(["csv", "text"]),
)
@settings(deadline=None)
def test_verbatim_cells_render_like_per_cell_reference(rows, fmt):
    spec = TableSpec(TableId.T1, (ColumnRule("a"), ColumnRule("b"), ColumnRule("x", decimals=2)))
    dicts = [{"a": a, "b": b, "x": x} for a, b, x in rows]
    assert render_table(spec, dicts, fmt) == reference_render(spec, dicts, fmt)


@given(values=st.lists(verbatim_values, max_size=6), fmt=st.sampled_from(["csv", "text"]))
@settings(deadline=None)
def test_single_verbatim_column_renders_like_per_cell_reference(values, fmt):
    spec = TableSpec(TableId.T1, (ColumnRule("a"),))
    dicts = [{"a": value} for value in values]
    assert render_table(spec, dicts, fmt) == reference_render(spec, dicts, fmt)


@given(
    rows=st.lists(st.tuples(verbatim_values, verbatim_values, cell_values), max_size=6),
    decimals=st.integers(min_value=0, max_value=8),
    fmt=st.sampled_from(["csv", "text"]),
)
@settings(deadline=None)
def test_render_table_equals_the_bytes_write_table_writes(rows, decimals, fmt):
    spec = TableSpec(TableId.T1, (ColumnRule("a"), ColumnRule("b"), ColumnRule("x", decimals=decimals)))
    dicts = [{"a": a, "b": b, "x": x} for a, b, x in rows]
    raw = io.BytesIO()
    sink = io.TextIOWrapper(raw, encoding="utf-8", newline="")  # what open(path, "w", ...) gives
    write_table(spec, dicts, sink, fmt)
    sink.flush()
    assert raw.getvalue() == render_table(spec, dicts, fmt).encode("utf-8")


# Tables written a block at a time: a small block size puts many blocks in a
# short table, so every block edge and every per-block fallback is crossed.
block_cells = st.integers(min_value=1, max_value=40)
writer_verbatim = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**20, max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.sampled_from(list(',"\n\r\0 a')), max_size=6),
)
WRITER_SPEC = TableSpec(
    TableId.T1,
    (
        ColumnRule("a"),
        ColumnRule("x", decimals=2),
        ColumnRule("n", decimals=0),
        ColumnRule("m", decimals=0),
        ColumnRule("y", decimals=7),
        ColumnRule("s", sig_figures=3),
        ColumnRule("b"),
    ),
)
writer_rows = st.tuples(
    writer_verbatim,
    st.one_of(cell_values, st.sampled_from([D("-0.001"), D("0.004"), D("-0.005")])),
    st.one_of(st.integers(min_value=-10**20, max_value=10**20), finite_decimals),  # int and Decimal mixed
    st.integers(min_value=0, max_value=10**12),
    st.one_of(finite_decimals, st.sampled_from([D("9.5E-8"), D("4.9E-8"), D("0E-9"), D("-0.00000004")])),
    cell_values,
    writer_verbatim,
)


@given(rows=st.lists(writer_rows, max_size=30), cells=block_cells, fmt=st.sampled_from(["csv", "text"]))
@settings(deadline=None)
def test_blocks_render_like_the_per_cell_reference(rows, cells, fmt):
    names = [c.name for c in WRITER_SPEC.columns]
    dicts = [dict(zip(names, row)) for row in rows]
    try:
        expected = reference_render(WRITER_SPEC, dicts, fmt)
    except csv.Error:  # Python 3.10's csv.writer refuses a NUL without an escape character
        with pytest.raises(csv.Error), mock.patch.object(report, "_BLOCK_CELLS", cells):
            render_table(WRITER_SPEC, dicts, fmt)
        return
    with mock.patch.object(report, "_BLOCK_CELLS", cells):
        assert render_table(WRITER_SPEC, dicts, fmt) == expected


plot_amounts = st.one_of(
    st.builds(lambda c, e: D(f"{c}E{e}"), st.integers(min_value=0, max_value=10**30),
              st.integers(min_value=-30, max_value=30)),
    st.sampled_from([D("0"), D("-0"), D("1E+9"), D("0.0000001")]),
)


@given(
    years=st.lists(
        st.tuples(plot_amounts, plot_amounts.filter(lambda gdp: gdp > 0), st.integers(1, 10**10)),
        min_size=1, max_size=30,
    ),
    cells=block_cells,
    marked=st.booleans(),
)
@settings(deadline=None)
def test_plot_data_blocks_write_like_the_per_row_reference(years, cells, marked):
    series = AggregateSeries(USD, [AggregateYear(1900 + i, *year) for i, year in enumerate(years)])
    extrema = detect_extrema(series_in_monmin(series)) if marked and len(years) >= 3 else None
    with mock.patch.object(report, "_BLOCK_CELLS", cells):
        assert emit_plot_data(series, extrema) == reference_plot_data(series, extrema)


# ---------------------------------------------------------------------------
# file round trips: what a writer writes loads back equal

_LINE_BREAK = re.compile("\r\n|\r|\n")  # as a file is read


def _carried(text):
    """A later line that is blank or begins with "#" is dropped by the reader; writers refuse it."""
    return all(line.lstrip()[:1] not in ("", "#") for line in _LINE_BREAK.split(text)[1:])


# Printable and multi-line text with the characters CSV and the reader treat
# specially; loaders strip every cell, so no leading or trailing whitespace.
cell_texts = st.text(
    st.one_of(st.sampled_from('#,"\r\n \té€'), st.characters(codec="utf-8", exclude_categories=("Cs", "Cc"))),
    max_size=12,
).map(str.strip).filter(_carried)
codes = st.from_regex(r"[A-Z0-9]{3,4}", fullmatch=True).map(CurrencyCode)
scales = st.builds(lambda c, e: D(f"{c}E{e}"), st.integers(1, 10**6), st.integers(-12, 12))


def _round_trip(write, load, value, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write(path, value)
        loaded, report = load(path, **kwargs)
        assert report.ok, report.errors
        return loaded, path.read_bytes().decode("utf-8")


economy_lists = st.lists(
    st.builds(EconomySnapshot, cell_texts, codes, _long_decimals(min_coefficient=1),
              st.integers(1, 10**12), st.dates()),
    max_size=5, unique_by=lambda s: s.country,
)


@st.composite
def rate_tables(draw):
    pairs = draw(st.lists(st.tuples(codes, codes).filter(lambda p: p[0] != p[1]),
                          max_size=5, unique_by=lambda p: (p[0].code, p[1].code)))
    return RateTable(
        ExchangeRate(base, quote, draw(_long_decimals(min_coefficient=1)), draw(st.none() | st.dates()))
        for base, quote in pairs
    )


@st.composite
def basket_lists(draw):
    keys = draw(st.lists(st.tuples(cell_texts, codes), max_size=4, unique_by=lambda k: (k[0], k[1].code)))
    baskets = []
    for country, currency in keys:
        quote = st.builds(PriceQuote, cell_texts, cell_texts, st.just(currency), _long_decimals())
        items = tuple(draw(st.lists(quote, max_size=3)))
        salary = draw(st.none() | quote) if items else draw(quote)
        baskets.append(Basket(country, currency, items, salary))
    return baskets


@st.composite
def series_values(draw):
    years = sorted(draw(st.lists(st.integers(-5000, 5000), min_size=1, max_size=5, unique=True)))
    return AggregateSeries(CurrencyCode("USD"), tuple(
        AggregateYear(year, draw(_long_decimals()), draw(_long_decimals(min_coefficient=1)),
                      draw(st.integers(1, 10**12)), draw(cell_texts))
        for year in years
    ))


@given(snapshots=economy_lists)
@settings(deadline=None)
def test_economies_load_back_equal(snapshots):
    assert _round_trip(write_economies, load_economies, snapshots)[0] == snapshots


def _writable(text):
    """A writer refuses a later line that begins with "#", or a blank one that is not the last."""
    lines = _LINE_BREAK.split(text)[1:]
    return (all(line.lstrip()[:1] != "#" for line in lines)
            and all(line.strip() for line in lines[:-1]))


@given(text=st.text(st.sampled_from('a#,"\r\n \t'), max_size=8))
@settings(deadline=None)
def test_writer_refuses_what_the_reader_drops_and_cells_load_back_stripped(text):
    snapshot = EconomySnapshot(text, CurrencyCode("USD"), D(1), 1, "2019-01-01")
    if not _writable(text):
        with tempfile.TemporaryDirectory() as tmp, pytest.raises(ValueError):
            write_economies(Path(tmp) / "f.csv", [snapshot])
        return
    loaded = _round_trip(write_economies, load_economies, [snapshot])[0]
    assert loaded == [dataclasses.replace(snapshot, country=text.strip())]


@given(table=rate_tables())
@settings(deadline=None)
def test_rates_load_back_equal(table):
    loaded = _round_trip(write_rates, load_rates, table)[0]
    assert loaded == table and list(loaded) == list(table)


@given(baskets=basket_lists())
@settings(deadline=None)
def test_baskets_load_back_equal(baskets):
    assert _round_trip(write_basket, load_basket, baskets)[0] == baskets


@given(series=series_values())
@settings(deadline=None)
def test_series_loads_back_equal(series):
    assert _round_trip(write_series, load_series, series)[0] == series


def _scaled_load(load, text, scale, bom):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_bytes((("\ufeff" if bom else "") + f"# scale={scale}\n" + text).encode("utf-8"))
        loaded, report = load(path)
        assert report.ok, report.errors
        return loaded


@given(snapshots=economy_lists, scale=scales, bom=st.booleans())
@settings(deadline=None)
def test_economies_scale_line_multiplies_gdp(snapshots, scale, bom):
    text = _round_trip(write_economies, load_economies, snapshots)[1]
    scaled = [dataclasses.replace(s, gdp=s.gdp * scale) for s in snapshots]
    want = _round_trip(write_economies, load_economies, scaled)[0]
    assert _scaled_load(load_economies, text, scale, bom) == want == scaled


@given(series=series_values(), scale=scales, bom=st.booleans())
@settings(deadline=None)
def test_series_scale_line_multiplies_m1_and_gdp(series, scale, bom):
    text = _round_trip(write_series, load_series, series)[1]
    scaled = dataclasses.replace(series, years=tuple(
        dataclasses.replace(y, m1=y.m1 * scale, gdp=y.gdp * scale) for y in series.years
    ))
    want = _round_trip(write_series, load_series, scaled)[0]
    assert _scaled_load(load_series, text, scale, bom) == want == scaled


def _manual_cms(*pairs: str) -> dict[str, MonMinValue]:
    return {code: MonMinValue(CurrencyCode(code), D(value)) for code, value in (pair.split("=") for pair in pairs)}


def _every_output() -> dict[str, str]:
    """Each golden table, both listings and the plot data: the fixtures loaded, built and written as CSV."""
    from monmin import build_table1, build_table2, build_table5, write_plot_data

    economies, _ = load_economies(FIXTURES / "economies_table1.csv")
    commodities, _ = load_basket(FIXTURES / "basket_commodities.csv")
    food, _ = load_basket(FIXTURES / "basket_food.csv")
    rates, _ = load_rates(FIXTURES / "rates_table2.csv")
    series, _ = load_series(FIXTURES / "series_us.csv")
    commodity_cms = _manual_cms("USD=0.121001", "CZK=0.951979", "EUR=0.077722", "GBP=0.014648")
    table2_cms = _manual_cms("USD=0.11918", "GBP=0.170789", "JPY=0.00157685", "CNY=0.00023033")
    food_cms = _manual_cms("USD=0.12101", "EUR=0.07772", "GBP=0.014548", "JPY=8.2873", "CNY=0.0347", "CZK=0.95198")
    built = {
        "table1.csv": build_table1(economies),
        "table2.csv": build_table2(table2_cms.pop("USD"), rates, table2_cms),
        "table3.csv": build_table3(commodities, commodity_cms),
        "table4.csv": build_table4(food, food_cms),
        "table4b.csv": build_table4b(food),
        "table5.csv": build_table5(series),
        "basket_commodities.csv": build_basket_listing(commodities, commodity_cms),
        "percent_food.csv": build_percent_listing(food),
    }
    outputs = {name: render_table(*table) for name, table in built.items()}
    outputs["table1.txt"] = render_table(*built["table1.csv"], fmt="text")
    plot = io.StringIO()
    write_plot_data(series, plot, detect_extrema(series_in_monmin(series)))
    outputs["plot_series_us.csv"] = plot.getvalue()
    return outputs


def _every_issue() -> dict[str, str]:
    """Each dirty fixture's issues, loaded as ``TestIssueGoldens`` loads them, in its golden file's form."""
    limit = csv.field_size_limit(64)  # so a short cell can raise csv.Error
    try:
        return {
            f"ingest_{fmt}.issues": "".join(
                json.dumps(list(issue)) + "\n" for issue in loader(FIXTURES / f"dirty_{fmt}.csv", **kwargs)[1].errors
            )
            for fmt, (loader, kwargs) in test_ingest.TestIssueGoldens.LOADS.items()
        }
    finally:
        csv.field_size_limit(limit)


def _reciprocal_warnings() -> tuple[Issue, ...]:
    """The warnings of a rate pair whose product, 1E+10, prints with an exponent."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "r.csv"
        path.write_text("base,quote,rate,as_of\nUSD,EUR,1E+5,\nEUR,USD,1E+5,\n", encoding="utf-8")
        return load_rates(path)[1].warnings


_SIGNALS = [decimal.Inexact, decimal.Rounded, decimal.Subnormal, decimal.Underflow, decimal.Clamped,
            decimal.FloatOperation]
_ROUNDINGS = [decimal.ROUND_UP, decimal.ROUND_DOWN, decimal.ROUND_CEILING, decimal.ROUND_FLOOR,
              decimal.ROUND_HALF_UP, decimal.ROUND_HALF_DOWN, decimal.ROUND_HALF_EVEN, decimal.ROUND_05UP]


@st.composite
def caller_contexts(draw):
    emax = draw(st.integers(min_value=1, max_value=decimal.MAX_EMAX))
    return decimal.Context(
        prec=draw(st.integers(min_value=1, max_value=60)),
        rounding=draw(st.sampled_from(_ROUNDINGS)),
        Emax=emax,
        Emin=-emax,
        capitals=draw(st.integers(min_value=0, max_value=1)),
        clamp=draw(st.integers(min_value=0, max_value=1)),
        traps=draw(st.lists(st.sampled_from(_SIGNALS), unique=True)),
    )


@given(context=st.one_of(
    st.just(decimal.Context(prec=6, rounding=decimal.ROUND_FLOOR, traps=[decimal.Inexact])), caller_contexts()
), block_path=st.booleans())
@settings(deadline=None, max_examples=25)
def test_every_output_is_the_same_whatever_the_caller_context(context, block_path):
    """Loaded, built and written under the caller's context, every golden output keeps its default-context bytes.

    So do the dirty fixtures' issues and a reciprocal rate pair's warning.
    The block path is tried on the fixtures too when ``block_path`` is set.
    """
    with mock.patch.object(ingest, "_BLOCK_CHARS", 1 if block_path else ingest._BLOCK_CHARS):
        with decimal.localcontext(context):
            outputs = _every_output()
            outputs.update(_every_issue())
            warnings = _reciprocal_warnings()
    assert outputs == {name: (GOLDEN / name).read_text(encoding="utf-8") for name in outputs}
    assert warnings == (Issue(3, "reciprocal rates EUR->USD and USD->EUR multiply to 1E+10, expected 1"),)
