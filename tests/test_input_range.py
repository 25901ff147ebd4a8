"""The input range, and README's proof that no figure made from inputs in it leaves the decimal range.

Every nonzero number read from a file or a flag has an adjusted exponent
within -99999 to 99999, and a population at most 100000 digits.  Each
chain of figures that README lists is run here with every input at each
end of that range, and its figure must be a normal number of the figures'
context: no exception, and not subnormal.  The edges themselves load as
cells, scale factors and flags; one step past them is refused there.
"""
import sys
from datetime import date
from decimal import Decimal as D
from functools import cache
from itertools import product
from unittest import mock

import pytest

from monmin import (
    AggregateSeries,
    AggregateYear,
    Basket,
    CurrencyCode,
    EconomySnapshot,
    ExchangeRate,
    MonMinPrice,
    MonMinValue,
    PriceQuote,
    RateTable,
    TimeStandard,
    build_basket_listing,
    build_percent_listing,
    build_table1,
    build_table2,
    build_table5,
    compute_cm,
    cross_cm,
    from_monmin,
    invert_cm,
    load_basket,
    load_economies,
    load_rates,
    load_series,
    m1_in_monmin,
    parity_rate,
    series_in_monmin,
    to_monmin,
)
from monmin import ingest
from monmin.cli import main
from monmin.core import _FIGURES
from monmin.errors import _BOUND

from test_ingest_blocks import block_path_only, row_path, same

USD, EUR = CurrencyCode("USD"), CurrencyCode("EUR")
AS_OF = date(2019, 1, 1)

# Forty nines, so that a product or quotient of two can round up to the next power of ten.
HIGH = D(f"9.{'9' * 39}E+{_BOUND}")
LOW = D(f"1E-{_BOUND}")
ENDS = (LOW, HIGH)
POPULATIONS = (1, 10 ** (_BOUND + 1) - 1)  # a file carries the second only past Python's int-text limit


def outside(what: str) -> str:
    return f"{what} is outside the input range (exponent -99999 to 99999)"


def test_the_ends_are_the_edges_of_the_range():
    assert (HIGH.adjusted(), LOW.adjusted(), D(POPULATIONS[1]).adjusted()) == (_BOUND, -_BOUND, _BOUND)
    assert _BOUND == 99999


# ---------------------------------------------------------------------------
# the proof: each chain of README's list, every input at either end


@cache
def cm_from(gdp, population, minutes) -> MonMinValue:
    """``compute_cm`` of one corner, made once: a population of 100,000 digits takes a fifth of a second to convert."""
    return compute_cm(EconomySnapshot("X", USD, gdp, population, AS_OF), TimeStandard(minutes))


CM_CORNERS = list(product(ENDS, POPULATIONS, ENDS))  # (gdp, population, minutes)


def normal(value: D) -> bool:
    return value.is_normal(_FIGURES)


def test_table1_gdp_per_capita_and_cm():
    snapshots = [EconomySnapshot(f"X{i}", USD, gdp, pop, AS_OF) for i, (gdp, pop, _) in enumerate(CM_CORNERS)]
    for minutes in ENDS:
        rows = build_table1(snapshots, TimeStandard(minutes))[1]
        assert all(normal(row["gdp_per_capita"]) and normal(row["cm"]) for row in rows)


def test_cm_from_gdp():
    assert all(normal(cm_from(*corner).value) for corner in CM_CORNERS)


def test_cross_cm_and_its_inverse_from_a_flag():
    """Table 2: the base row's ``--cm`` and each quote's ``cm * rate``, and ``1 / cm`` of both."""
    for cm, rate in product(ENDS, ENDS):
        rows = build_table2(MonMinValue(USD, cm), RateTable([ExchangeRate(USD, EUR, rate)]))[1]
        assert all(normal(row["cm"]) and normal(row["inverse_cm"]) for row in rows)


def test_cross_cm_and_its_inverse_from_gdp():
    for corner, rate in product(CM_CORNERS, ENDS):
        cm = cross_cm(cm_from(*corner), ExchangeRate(USD, EUR, rate))
        assert normal(cm.value) and normal(invert_cm(cm))


def test_quote_in_minutes():
    """``amount / cm``, the cm from gdp: tables 3 and 4, the basket listing and ``convert``."""
    for amount, corner in product(ENDS, CM_CORNERS):
        cm = cm_from(*corner)
        assert normal(to_monmin(PriceQuote("Gold", "oz", USD, amount), cm).monmin)
        basket = Basket("X", USD, (PriceQuote("Gold", "oz", USD, amount),))
        assert normal(build_basket_listing([basket], {"USD": cm})[1][0]["monmin"])


def test_cross_rate_quote_in_minutes():
    """The longest chain the CLI's figures rest on: amount * population * minutes / (gdp * rate), five inputs."""
    for amount, corner, rate in product(ENDS, CM_CORNERS, ENDS):
        cm = cross_cm(cm_from(*corner), ExchangeRate(USD, EUR, rate))
        assert normal(to_monmin(PriceQuote("Gold", "oz", EUR, amount), cm).monmin)


def test_price_from_minutes_and_back():
    """``from_monmin`` of ``to_monmin``: nine inputs, the cm's four counted twice, still normal."""
    for amount, corner in product(ENDS, CM_CORNERS):
        cm = cm_from(*corner)
        assert normal(from_monmin(to_monmin(PriceQuote("Gold", "oz", USD, amount), cm), cm).amount)


def test_percent_of_salary():
    """Table 4b and the percent listing: 100 * (amount / 1) / (salary / 1)."""
    for amount, salary in product(ENDS, ENDS):
        basket = Basket("X", USD, (PriceQuote("Gold", "oz", USD, amount),), PriceQuote("Pay", "month", USD, salary))
        assert all(normal(row["percent"]) for row in build_percent_listing([basket])[1])


def test_parity_rate():
    for rate, ref, local in product(ENDS, ENDS, ENDS):
        figure = parity_rate(ExchangeRate(USD, EUR, rate), MonMinPrice("Gold", USD, ref), MonMinPrice("Gold", EUR, local))
        assert normal(figure)


def test_m1_in_minutes_and_table5():
    """m1 * population * minutes / gdp, and table 5's ``/ 1E+9`` of it, for one series of every corner."""
    corners = list(product(ENDS, ENDS, POPULATIONS))  # (m1, gdp, population)
    for minutes in ENDS:
        std = TimeStandard(minutes)
        years = [AggregateYear(1900 + i, m1, gdp, pop) for i, (m1, gdp, pop) in enumerate(corners)]
        minutes_of = series_in_monmin(AggregateSeries(USD, tuple(years), std))
        assert all(normal(value) for _, value in minutes_of)
        rows = build_table5(AggregateSeries(USD, tuple(years), std), minutes_of)[1]
        assert all(normal(row["m1_monmin_billions"]) for row in rows)
        assert all(normal(m1_in_monmin(y, std)) for y in years if y.population == 1)


def test_reciprocal_rate_product():
    for forward, back in product(ENDS, ENDS):
        table = RateTable([ExchangeRate(USD, EUR, forward), ExchangeRate(EUR, USD, back)])
        assert all(normal(found) for _, _, found in table.reciprocal_mismatches(rel_tol=D(0)))


def test_cli_run_at_the_edges(capsys, tmp_path):
    """An amount at the top, a gdp at the bottom and a tetcy at the top: a minute figure of about 9E+299998."""
    economies, basket = tmp_path / "e.csv", tmp_path / "b.csv"
    economies.write_text("country,currency,gdp,population,as_of\nEdge,USD,1E-99999,1,2019-01-01\n")
    basket.write_text("country,currency,item,unit,amount,role\nEdge,USD,Gold,oz,9.99E+99999,item\n")
    code = main(["basket", "--basket", str(basket), "--economies", str(economies), "--tetcy", "9E+99999"])
    out, err = capsys.readouterr()
    assert code == 0, err
    row = out.splitlines()[1].split(",")
    assert row[:6] == ["Edge", "USD", "Gold", "oz", "999" + "0" * 99997, "item"] and len(row[6]) == 299999
    assert err == "cm USD=1.111111111111111111111111111E-199999 source=computed_from_gdp\n"


# ---------------------------------------------------------------------------
# where each input is read: the edges load, one step past them is refused


EDGES = ["1E-99999", "9.99E+99999", "0E-200000"]
PAST = ["1E+100000", "1E-100000"]


def with_blocks(loader, path, **kwargs):
    """What ``loader`` returns on the block path alone, with a block of one row, equal to the row path's."""
    with mock.patch.object(ingest, "_BLOCK_CHARS", 1), mock.patch.object(ingest, "_BLOCK_ROWS", 1):
        loaded = block_path_only(loader, path, **kwargs)
    same(loaded, row_path(loader, path, **kwargs))
    return loaded


# (loader, file with "{}" in a column that takes zero, how to read the loaded number back)
CELLS = {
    "amount": (load_basket, "country,currency,item,unit,amount,role\nA,USD,Gold,oz,{},item\n",
               lambda baskets: baskets[0].items[0].amount),
    "m1": (load_series, "year,m1,gdp,population\n2000,{},1,5\n", lambda series: series.years[0].m1),
    "gdp": (load_series, "year,m1,gdp,population\n2000,1,{},5\n", lambda series: series.years[0].gdp),
    "economies-gdp": (load_economies, "country,currency,gdp,population,as_of\nA,USD,{},5,2019-01-01\n",
                      lambda snapshots: snapshots[0].gdp),
}


@pytest.mark.parametrize("column,text", [
    (column, text) for column in sorted(CELLS) for text in EDGES if not (text == "0E-200000" and "gdp" in column)
])  # a gdp must be above zero
def test_a_cell_at_an_edge_loads_on_both_paths(tmp_path, column, text):
    loader, body, read = CELLS[column]
    path = tmp_path / "f.csv"
    path.write_text(body.format(text))
    data, report = with_blocks(loader, path)
    assert report.ok and repr(read(data)) == repr(D(text))


@pytest.mark.parametrize("column", sorted(CELLS))
@pytest.mark.parametrize("text", PAST)
def test_a_cell_past_an_edge_is_refused_on_its_line(tmp_path, column, text):
    loader, body, _ = CELLS[column]
    path = tmp_path / "f.csv"
    path.write_text(body.format(text))
    with mock.patch.object(ingest, "_BLOCK_CHARS", 1):
        data, report = loader(path)
    assert not data and [(e.line, e.message) for e in report.errors] == [(2, f"MalformedRow: {outside(repr(text))}")]


@pytest.mark.parametrize("text,loads", [("1E-99999", True), ("9.99E+99999", True), *((t, False) for t in PAST)])
def test_a_rate_at_an_edge_loads_and_past_it_is_refused(tmp_path, text, loads):
    path = tmp_path / "r.csv"
    path.write_text(f"base,quote,rate,as_of\nUSD,EUR,{text},\n")
    table, report = load_rates(path)
    if loads:
        assert report.ok and repr(table.get("USD", "EUR").rate) == repr(D(text))
    else:
        assert [(e.line, e.message) for e in report.errors] == [(2, f"MalformedRow: {outside(repr(text))}")]


@pytest.mark.parametrize("scale", ["1E-99999", "9.99E+99999"])
def test_a_scale_factor_at_an_edge_loads(tmp_path, scale):
    path = tmp_path / "s.csv"
    path.write_text(f"# scale={scale}\nyear,m1,gdp,population\n2000,0E-200000,1,5\n")
    series, report = with_blocks(load_series, path)
    assert report.ok and series.years[0].gdp == D(scale)


@pytest.mark.parametrize("scale,message", [
    ("0E-200000", "NonPositiveInput: scale must be > 0, got 0E-200000"),
    *((text, f"MalformedRow: {outside(f'scale factor {text!r}')}") for text in PAST),
])
def test_a_scale_factor_that_is_zero_or_past_an_edge_is_refused(tmp_path, scale, message):
    """A zero is in the range: its refusal is the scale's own rule, that it be above zero."""
    path = tmp_path / "s.csv"
    path.write_text(f"# scale={scale}\nyear,m1,gdp,population\n2000,1,1,5\n")
    _, report = load_series(path)
    assert [(e.line, e.message) for e in report.errors] == [(1, message)]


FLAGS = {  # argv with "{}" for the flag's value, and the flag named
    "--amount": (["convert", "--amount", "{}", "--cm", "1"], "--amount"),
    "--cm": (["convert", "--amount", "1", "--cm", "{}"], "--cm"),
    "--cm CODE=": (["basket", "--basket", "{basket}", "--cm", "USD={}"], "--cm"),
    "--rate": (["parity", "--rate", "{}", "--ref", "1", "--local", "1"], "--rate"),
    "--ref": (["parity", "--rate", "1", "--ref", "{}", "--local", "1"], "--ref"),
    "--local": (["parity", "--rate", "1", "--ref", "1", "--local", "{}"], "--local"),
    "--tetcy": (["series", "--series", "{series}", "--tetcy", "{}"], "--tetcy"),
}


def flag_argv(tmp_path, flag, text):
    basket, series = tmp_path / "b.csv", tmp_path / "s.csv"
    basket.write_text("country,currency,item,unit,amount,role\nA,USD,Gold,oz,1,item\n")
    series.write_text("year,m1,gdp,population\n2000,1,1,5\n")
    argv, _ = FLAGS[flag]
    return [arg.format(text, basket=basket, series=series) for arg in argv]


@pytest.mark.parametrize("flag", sorted(FLAGS))
@pytest.mark.parametrize("text", EDGES)
def test_a_flag_at_an_edge_is_taken(capsys, tmp_path, flag, text):
    """An edge is never refused for the range; a zero where the flag needs more than zero is refused for its sign."""
    code = main(flag_argv(tmp_path, flag, text))
    _, err = capsys.readouterr()
    if text == "0E-200000" and flag not in ("--amount", "--ref"):
        assert code == 1 and "outside the input range" not in err
    else:
        assert code == 0, err


@pytest.mark.parametrize("flag", sorted(FLAGS))
@pytest.mark.parametrize("text", ["0", "-1", "0E-200000"])
def test_a_flag_below_its_least_value_is_a_usage_error_naming_it(capsys, tmp_path, flag, text):
    """``--amount`` and ``--ref`` take zero; every other decimal flag must be above it."""
    code = main(flag_argv(tmp_path, flag, text))
    out, err = capsys.readouterr()
    zero = flag in ("--amount", "--ref")
    if zero and text != "-1":
        assert code == 0, err
    else:
        last = f"usage error: {FLAGS[flag][1]} must be {'>=' if zero else '>'} 0, got {text}"
        assert (code, out, err.splitlines()[-1]) == (1, "", last)
        assert "Traceback" not in err


@pytest.mark.parametrize("flag", sorted(FLAGS))
@pytest.mark.parametrize("text", PAST)
def test_a_flag_past_an_edge_is_a_usage_error_naming_it(capsys, tmp_path, flag, text):
    code = main(flag_argv(tmp_path, flag, text))
    out, err = capsys.readouterr()
    assert (code, out, err.splitlines()[-1]) == (1, "", f"usage error: {outside(f'{FLAGS[flag][1]} {text!r}')}")
    assert "Traceback" not in err


@pytest.fixture
def long_integers():
    """Python's own limit on the digits of an integer's text lifted, as a caller may lift it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


POPULATION_FILES = {
    "economies": (load_economies, "country,currency,gdp,population,as_of\nA,USD,1,{},2019-01-01\n", "A"),
    "series": (load_series, "year,m1,gdp,population\n2000,1,1,{}\n", "2000"),
}


@pytest.mark.parametrize("kind", sorted(POPULATION_FILES))
def test_a_population_of_more_than_100000_digits_is_refused_on_both_paths(tmp_path, long_integers, kind):
    loader, body, row = POPULATION_FILES[kind]
    path = tmp_path / "f.csv"
    path.write_text(body.format("1" + "0" * (_BOUND + 1)))
    assert path.stat().st_size >= ingest._BLOCK_CHARS  # tried by the block path first
    data, report = loader(path)
    assert not data and [(e.line, e.message) for e in report.errors] == [
        (2, f"MalformedRow: {outside(f'{row}: a population of more than 100000 digits')}")
    ]


@pytest.mark.parametrize("kind", sorted(POPULATION_FILES))
def test_a_population_of_100000_digits_loads(tmp_path, long_integers, kind):
    loader, body, _ = POPULATION_FILES[kind]
    path = tmp_path / "f.csv"
    path.write_text(body.format("9" * (_BOUND + 1)))
    data, report = loader(path)
    population = data[0].population if kind == "economies" else data.years[0].population
    assert report.ok and population == 10 ** (_BOUND + 1) - 1


@pytest.mark.parametrize("kind", sorted(POPULATION_FILES))
def test_the_block_path_loads_a_long_population_short_of_the_bound(tmp_path, long_integers, kind):
    loader, body, _ = POPULATION_FILES[kind]
    path = tmp_path / "f.csv"
    path.write_text(body.format("9" * 5000))
    data, report = with_blocks(loader, path)
    population = data[0].population if kind == "economies" else data.years[0].population
    assert report.ok and population == 10 ** 5000 - 1
