"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; any failure shows up as a normal pytest failure.
"""
import csv
import io
import math
import random
from decimal import Decimal as D

import pytest
from hypothesis import given, settings, strategies as st

from monmin import (
    CmSource,
    CurrencyCode,
    EconomySnapshot,
    ExchangeRate,
    MonMinPrice,
    MonMinValue,
    PriceQuote,
    TimeStandard,
    compute_cm,
    cross_cm,
    detect_extrema,
    from_monmin,
    invert_cm,
    load_basket,
    load_economies,
    load_series,
    m1_in_monmin,
    parity_rate,
    percent_of_salary,
    to_monmin,
)
from monmin.cli import main
from monmin.series import AggregateYear

from conftest import FIXTURES, GOLDEN, golden_runs
from expected_tables import (
    PARITY_GOLD,
    PARITY_MCMEAL,
    TABLE1,
    TABLE2,
    TABLE2_BASE_CM,
    TABLE3,
    TABLE3_CM,
    TABLE3_CODES,
    TABLE4_COUNTRIES,
    TABLE4_ITEMS,
    TABLE4_SALARY,
    TABLE4B,
    TABLE5,
    ulp,
)
from oracles import brute_force_extrema, table5_population_interval

USD = CurrencyCode("USD")
STD = TimeStandard()


def _pass(criterion, text):
    print(f"PASS: criterion {criterion} — {text}")


def test_criterion_1_table1_minute_values():
    snapshots, report = load_economies(FIXTURES / "economies_table1.csv")
    assert report.ok
    by_country = {s.country: s for s in snapshots}
    assert len(by_country) == 6
    for country, code, _, _, _, printed_cm in TABLE1:
        cm = compute_cm(by_country[country], STD)
        assert cm.currency.code == code
        assert abs(cm.value - printed_cm) <= D("5e-8"), (country, cm.value, printed_cm)
    _pass(1, "six-country minute values within 5e-8 of the published 7-decimal figures")


def test_criterion_2_table2_cross_rate_and_inverse_row():
    base = MonMinValue(USD, TABLE2_BASE_CM, CmSource.MANUAL)
    eur = cross_cm(base, ExchangeRate(USD, CurrencyCode("EUR"), D("1.1325")))
    assert abs(eur.value - D("0.134971")) <= D("5e-6")
    for code, (_, printed_cm, printed_inverse) in TABLE2.items():
        inverse = invert_cm(MonMinValue(CurrencyCode(code), printed_cm, CmSource.MANUAL))
        assert abs(inverse - printed_inverse) <= D("0.01"), (code, inverse, printed_inverse)
    _pass(2, "EUR cross value within 5e-6 and the full inverse row within 0.01")


def test_criterion_3_table3_all_24_minute_prices():
    baskets, report = load_basket(FIXTURES / "basket_commodities.csv")
    assert report.ok
    checked = 0
    for basket in baskets:
        code = basket.currency.code
        cm = MonMinValue(basket.currency, TABLE3_CM[code], CmSource.MANUAL)
        column = TABLE3_CODES.index(code)
        for quote in basket.items:
            printed = TABLE3[quote.item][2][column]
            computed = to_monmin(quote, cm).monmin
            assert abs(computed.quantize(D(1)) - printed) <= 1, (quote.item, code)
            checked += 1
    assert checked == 24
    _pass(3, "all 24 commodity minute prices match the published integers within 1")


def test_criterion_4_parity_rates():
    for rate, ref, local, expected, tolerance in PARITY_GOLD + PARITY_MCMEAL:
        value = parity_rate(
            ExchangeRate(CurrencyCode("REF"), CurrencyCode("LOC"), rate),
            MonMinPrice("item", CurrencyCode("REF"), ref),
            MonMinPrice("item", CurrencyCode("LOC"), local),
        )
        assert abs(value - expected) <= tolerance, (rate, ref, local, value, expected)
    _pass(4, "gold and McMeal parity rates match the published figures")


def test_criterion_5_table4b_spot_checks_and_cancellation():
    salary = MonMinPrice("salary", USD, D(25867))
    spots = [(D(123), D("0.48")), (D(58), D("0.22")), (D(7), D("0.03"))]
    for minutes, printed in spots:
        value = percent_of_salary(MonMinPrice("item", USD, minutes), salary)
        assert abs(value - printed) <= D("0.005"), (minutes, value, printed)
    assert percent_of_salary(salary, salary) == 100

    # minute-value cancellation across the whole food fixture
    baskets, report = load_basket(FIXTURES / "basket_food.csv")
    assert report.ok
    cms = {code: D(value) for _, code, value in TABLE4_COUNTRIES}
    checked = 0
    for basket in baskets:
        cm = MonMinValue(basket.currency, cms[basket.currency.code], CmSource.MANUAL)
        salary_minutes = to_monmin(basket.salary, cm)
        for quote in basket.items:
            from_minutes = percent_of_salary(to_monmin(quote, cm), salary_minutes)
            from_raw = 100 * quote.amount / basket.salary.amount
            assert abs(from_minutes - from_raw) / from_raw <= D("1e-12") if from_raw else from_minutes == 0
            checked += 1
    assert checked == 6 * 27
    _pass(5, "US percent spot checks within 0.005 and minute-value cancellation at 1e-12")


def test_criterion_6_table5_1960_anchor():
    year = AggregateYear(1960, D("140e9"), D("542e9"), 180_671_000)
    value = m1_in_monmin(year, STD)
    printed = D("24529e9")
    assert abs(value - printed) / printed <= D("0.005")
    _pass(6, "1960 M1 in minutes within 0.5% of the published 24529 billions")


def test_criterion_7_extrema_oracle_and_published_column():
    rng = random.Random(20190701)
    for case in range(1000):
        length = rng.randint(3, 100)
        spread = rng.choice([4, 6, 10, 10**6])  # small spreads force ties
        values = [(2000 + i, D(rng.randint(0, spread))) for i in range(length)]
        report = detect_extrema(values)
        peaks, troughs = brute_force_extrema(values)
        assert list(report.peaks) == peaks, f"case {case}"
        assert list(report.troughs) == troughs, f"case {case}"

    published = detect_extrema([(y, D(TABLE5[y][1])) for y in sorted(TABLE5)])
    assert {1987, 1994} <= set(published.peaks)
    assert {1981, 2001, 2008} <= set(published.troughs)
    _pass(7, "matches the brute-force oracle on 1000 random series; published column anchors found")


# --- criterion 8: randomized properties, >= 500 cases each at 1e-12 ---

gdps = st.decimals(min_value=D("0.01"), max_value=D("1e15"), places=2,
                   allow_nan=False, allow_infinity=False)
populations = st.integers(min_value=1, max_value=2_000_000_000)
cm_values = st.decimals(min_value=D("1e-9"), max_value=D("1e9"), places=9,
                        allow_nan=False, allow_infinity=False)
amounts = st.decimals(min_value=D("0"), max_value=D("1e12"), places=4,
                      allow_nan=False, allow_infinity=False)
scales = st.decimals(min_value=D("1e-6"), max_value=D("1e6"), places=6,
                     allow_nan=False, allow_infinity=False)
m1_values = st.decimals(min_value=D("0"), max_value=D("1e14"), places=2,
                        allow_nan=False, allow_infinity=False)


def rel(a: D, b: D) -> D:
    if b == 0:
        return abs(a)
    return abs(a - b) / abs(b)


@given(gdp=gdps, population=populations)
@settings(max_examples=500, deadline=None)
def test_criterion_8_gdp_round_trip(gdp, population):
    snapshot = EconomySnapshot("X", USD, gdp, population, "2019-01-01")
    cm = compute_cm(snapshot, STD)
    assert rel(cm.value * population * STD.minutes_per_year, gdp) <= D("1e-12")


@given(amount=amounts, cm=cm_values)
@settings(max_examples=500, deadline=None)
def test_criterion_8_price_round_trip(amount, cm):
    value = MonMinValue(USD, cm)
    quote = PriceQuote("thing", "unit", USD, amount)
    back = from_monmin(to_monmin(quote, value), value)
    assert rel(back.amount, amount) <= D("1e-12")


@given(cm=cm_values)
@settings(max_examples=500, deadline=None)
def test_criterion_8_inversion_product_is_one(cm):
    value = MonMinValue(USD, cm)
    assert rel(invert_cm(value) * value.value, D(1)) <= D("1e-12")


@given(gdp=gdps, population=populations, amount=amounts, k=scales)
@settings(max_examples=500, deadline=None)
def test_criterion_8_gdp_and_price_scale_invariance(gdp, population, amount, k):
    plain = to_monmin(
        PriceQuote("thing", "unit", USD, amount),
        compute_cm(EconomySnapshot("X", USD, gdp, population, "2019-01-01"), STD),
    )
    scaled = to_monmin(
        PriceQuote("thing", "unit", USD, amount * k),
        compute_cm(EconomySnapshot("X", USD, gdp * k, population, "2019-01-01"), STD),
    )
    assert rel(scaled.monmin, plain.monmin) <= D("1e-12")


@given(m1=m1_values, gdp=gdps, population=populations, k=scales)
@settings(max_examples=500, deadline=None)
def test_criterion_8_m1_and_gdp_scale_invariance(m1, gdp, population, k):
    plain = m1_in_monmin(AggregateYear(1960, m1, gdp, population), STD)
    scaled = m1_in_monmin(AggregateYear(1960, m1 * k, gdp * k, population), STD)
    assert rel(scaled, plain) <= D("1e-12")


def test_criterion_8_reported():
    _pass(8, "five properties x 500 randomized cases at relative 1e-12")


# --- criterion 9: determinism and golden-file reproduction ---


def _run_capture(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _golden_rows(name):
    return list(csv.DictReader(io.StringIO((GOLDEN / name).read_text(encoding="utf-8"))))


def test_criterion_9_determinism_and_golden_bytes(capsys, tmp_path):
    for name, argv in golden_runs():
        first = _run_capture(argv, capsys)
        second = _run_capture(argv, capsys)
        assert first == second, f"{name}: output changed between runs"
        assert first == (GOLDEN / name).read_text(encoding="utf-8"), f"{name}: golden drift"
    # plot data file, twice
    plots = []
    for attempt in (1, 2):
        target = tmp_path / f"plot{attempt}.csv"
        argv = ["series", "--series", str(FIXTURES / "series_us.csv"),
                "--extrema", "--plot-data", str(target)]
        _run_capture(argv, capsys)
        plots.append(target.read_text(encoding="utf-8"))
    assert plots[0] == plots[1]
    assert plots[0] == (GOLDEN / "plot_series_us.csv").read_text(encoding="utf-8")
    _pass(9, "report outputs byte-identical across runs and equal to the golden files")


def test_criterion_9_golden_figures_match_printed():
    # table 1
    rows = {r["country"]: r for r in _golden_rows("table1.csv")}
    for country, code, gdp, population, printed_pc, printed_cm in TABLE1:
        row = rows[country]
        assert row["currency"] == code
        assert D(row["gdp"]) == gdp
        assert D(row["population"]) == population
        assert abs(D(row["gdp_per_capita"]) - printed_pc) <= 1
        assert abs(D(row["cm"]) - printed_cm) <= ulp(printed_cm)

    # table 2
    rows = {r["currency"]: r for r in _golden_rows("table2.csv")}
    for code, (printed_rate, printed_cm, printed_inverse) in TABLE2.items():
        row = rows[code]
        assert D(row["rate"]) == printed_rate
        assert abs(D(row["cm"]) - printed_cm) <= ulp(printed_cm)
        assert abs(D(row["inverse_cm"]) - printed_inverse) <= ulp(printed_inverse)
    assert rows["EUR"]["source"] == "cross_rate"
    assert rows["GBP"]["source"] == "manual"

    # table 3
    rows = {r["item"]: r for r in _golden_rows("table3.csv")}
    for item, (unit, prices, minutes) in TABLE3.items():
        row = rows[item]
        assert row["unit"] == unit
        for code, price, printed in zip(TABLE3_CODES, prices, minutes):
            assert D(row[f"price_{code}"]) == D(price)
            assert abs(D(row[f"monmin_{code}"]) - printed) <= 1

    # table 4 (items + salary row)
    rows = _golden_rows("table4.csv")
    by_key = {(r["item"], r["unit"]): r for r in rows}
    countries = [country for country, _, _ in TABLE4_COUNTRIES]
    for item, unit, minutes in TABLE4_ITEMS + [TABLE4_SALARY]:
        row = by_key[(item, unit)]
        for country, printed in zip(countries, minutes):
            assert abs(D(row[country]) - printed) <= 1, (item, country)

    # table 4b (two items share a name, so pair rows up by item and unit)
    rows = _golden_rows("table4b.csv")
    by_key = {(r["item"], r["unit"]): r for r in rows}
    for (item, unit, _), (item4b, percents) in zip(TABLE4_ITEMS, TABLE4B):
        assert item == item4b
        row = by_key[(item, unit)]
        for country, printed in zip(countries, percents):
            assert abs(D(row[country]) - D(printed)) <= ulp(printed), (item, unit, country)
    salary_row = next(r for r in rows if r["unit"] == "month")
    assert all(salary_row[c] == "100.00" for c in countries)

    # table 5: input columns must match exactly, the minute column is
    # reproducible only at the 1960 anchor (see the xfailed test below)
    rows = {int(r["year"]): r for r in _golden_rows("table5.csv")}
    assert len(rows) == 57
    for year, (m1, minutes, gdp) in TABLE5.items():
        assert D(rows[year]["m1_billions"]) == m1
        assert D(rows[year]["gdp_billions"]) == gdp
    assert abs(D(rows[1960]["m1_monmin_billions"]) - 24529) <= 1
    _pass(9, "every reproducible golden figure is within 1 unit of its printed last digit")


@pytest.mark.xfail(
    strict=True,
    reason="the published minute column beyond 1960 relies on an undisclosed "
    "population series; the census-sourced fixture reproduces only the anchor "
    "year within print resolution",
)
def test_criterion_9_table5_minute_column_full_reproduction():
    rows = {int(r["year"]): r for r in _golden_rows("table5.csv")}
    for year, (_, printed_minutes, _) in TABLE5.items():
        assert abs(D(rows[year]["m1_monmin_billions"]) - printed_minutes) <= 1, year


# The populations (whole persons, the exact interval widened to integers) that the printed table 5
# rows from 1991 on admit, at their print precision: m1, gdp and minutes each within 0.5 of the
# printed figure.  Each lies 0.2% (1991) to 3.2% (2010) below the fixture's census population.
TABLE5_IMPLIED_POPULATION = {
    1991: (252035696, 252395798), 1992: (254978535, 255311679), 1993: (257729951, 258030588),
    1994: (260095740, 260373590), 1995: (262756426, 263031871), 1996: (264975768, 265258143),
    1997: (267682648, 267976731), 1998: (270106394, 270403904), 1999: (272574570, 272867956),
    2000: (274981293, 275270725), 2001: (277274460, 277571923), 2002: (279894516, 280172931),
    2003: (282213575, 282486099), 2004: (284618550, 284877688), 2005: (287198833, 287449204),
    2006: (289553827, 289803589), 2007: (292085702, 292338607), 2008: (294496627, 294750264),
    2009: (296951016, 297175955), 2010: (299356189, 299571396), 2011: (301697010, 301894678),
    2012: (304275355, 304446155), 2013: (306639888, 306795269), 2014: (309151752, 309296842),
    2015: (311535963, 311670925), 2016: (313959849, 314089781),
}


def _fixture_population() -> dict[int, int]:
    series, report = load_series(FIXTURES / "series_us.csv")
    assert report.ok
    return {year.year: year.population for year in series.years}


def test_criterion_9_table5_minutes_to_1990_are_consistent_with_the_fixture_population():
    """Every printed row from 1960 to 1990 admits the fixture's population at the table's print precision."""
    population = _fixture_population()
    years = range(1960, 1991)
    for year in years:
        low, high = table5_population_interval(*TABLE5[year])
        assert low <= population[year] <= high, year
    _pass(9, f"table 5's minute column is consistent with the fixture's population in all {len(years)} years 1960-1990")


def test_criterion_9_table5_minutes_from_1991_imply_another_population():
    """No printed row from 1991 to 2016 admits the fixture's population: each implies a smaller one."""
    population = _fixture_population()
    assert sorted(TABLE5_IMPLIED_POPULATION) == [year for year in TABLE5 if year >= 1991]
    for year, (low, high) in TABLE5_IMPLIED_POPULATION.items():
        exact_low, exact_high = table5_population_interval(*TABLE5[year])
        assert (low, high) == (math.floor(exact_low), math.ceil(exact_high)), year
        assert high < population[year], year
    _pass(9, f"the fixture's population lies above the implied interval in all {len(TABLE5_IMPLIED_POPULATION)} years 1991-2016")
