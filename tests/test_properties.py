from decimal import Decimal as D

from hypothesis import assume, given, settings, strategies as st

from monmin import (
    ColumnRule,
    CurrencyCode,
    EconomySnapshot,
    ExchangeRate,
    MonMinValue,
    PriceQuote,
    TableId,
    TableSpec,
    TimeStandard,
    compute_cm,
    cross_cm,
    detect_extrema,
    parity_rate,
    percent_of_salary,
    render_table,
    round_half_away,
    to_monmin,
)
from monmin.report import format_cell

from oracles import brute_force_extrema, reference_cell

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
    assert str(round_half_away(value, decimals)) == expected
    assert format_cell(rule, value) == expected
    assert _rendered(rule, value) == expected


@given(value=cell_values, figures=st.integers(min_value=1, max_value=8))
@settings(deadline=None)
def test_significant_figures_formatter_matches_reference(value, figures):
    rule = ColumnRule("x", sig_figures=figures)
    expected = reference_cell(value, sig_figures=figures)
    assert format_cell(rule, value) == expected
    assert _rendered(rule, value) == expected
