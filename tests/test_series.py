import decimal
from decimal import Decimal as D

import pytest

from monmin import (
    AggregateSeries,
    AggregateYear,
    CurrencyCode,
    EmptySeries,
    ExtremaReport,
    NonMonotoneYears,
    NonPositiveInput,
    TimeStandard,
    TooShort,
    detect_extrema,
    load_series,
    m1_in_monmin,
    series_in_monmin,
)

from expected_tables import TABLE5

USD = CurrencyCode("USD")
STD = TimeStandard()


def year(y, m1, gdp, pop, events=""):
    return AggregateYear(y, D(m1), D(gdp), pop, events)


class TestM1InMonMin:
    def test_1960_anchor(self):
        value = m1_in_monmin(year(1960, "140e9", "542e9", 180671000), STD)
        expected = D("24529e9")
        assert abs(value - expected) / expected <= D("0.005")

    def test_zero_m1(self):
        assert m1_in_monmin(year(1960, 0, "542e9", 180671000), STD) == 0

    def test_m1_of_one_minute_value(self):
        pop = 1000
        gdp = D("1e12")
        one_minute = gdp / pop / STD.minutes_per_year
        assert m1_in_monmin(year(1960, one_minute, gdp, pop), STD) == 1

    def test_invariants_enforced_at_construction(self):
        with pytest.raises(NonPositiveInput):
            year(1960, 1, 0, 1000)
        with pytest.raises(NonPositiveInput):
            year(1960, 1, 100, 0)
        with pytest.raises(NonPositiveInput):
            year(1960, -1, 100, 1000)

    def test_a_year_built_past_the_range_raises_decimal_overflow(self, tmp_path):
        """Only a year a library caller builds gets there: ``load_series`` refuses both cells."""
        with pytest.raises(decimal.Overflow):
            m1_in_monmin(year(1960, "9E+999999", "1E-999999", 10), STD)
        with pytest.raises(decimal.Overflow):
            series_in_monmin(AggregateSeries(USD, (year(1960, "9E+999999", "1E-999999", 10),)))
        path = tmp_path / "s.csv"
        path.write_text("year,m1,gdp,population\n1960,9E+999999,1E-999999,10\n")
        _, report = load_series(path)
        outside = "MalformedRow: '9E+999999' is outside the input range (exponent -99999 to 99999)"
        assert [(e.line, e.message) for e in report.errors] == [(2, outside)]


class TestSeriesInMonMin:
    def test_order_and_length_preserved(self):
        s = AggregateSeries(USD, (year(1960, 1, 10, 5), year(1961, 2, 20, 5), year(1970, 3, 30, 5)))
        out = series_in_monmin(s)
        assert [y for y, _ in out] == [1960, 1961, 1970]
        assert len(out) == len(s.years)

    def test_single_year(self):
        s = AggregateSeries(USD, (year(2000, 5, 50, 7),))
        assert len(series_in_monmin(s)) == 1

    def test_empty_series_rejected(self):
        with pytest.raises(EmptySeries):
            AggregateSeries(USD, ())

    def test_2008_to_2009_step_exceeds_15_percent(self):
        rows = [(2007, 1374, 14452, 301231000), (2008, 1381, 14713, 304094000),
                (2009, 1588, 14449, 306772000)]
        s = AggregateSeries(USD, tuple(year(y, D(m1) * D("1e9"), D(gdp) * D("1e9"), pop)
                                       for y, m1, gdp, pop in rows))
        out = dict(series_in_monmin(s))
        assert (out[2009] - out[2008]) / out[2008] > D("0.15")

    def test_years_must_increase(self):
        with pytest.raises(NonMonotoneYears):
            AggregateSeries(USD, (year(1980, 1, 10, 5), year(1980, 1, 10, 5)))


class TestDetectExtrema:
    def test_printed_column_peaks_and_troughs(self):
        values = [(y, D(TABLE5[y][1])) for y in sorted(TABLE5)]
        report = detect_extrema(values)
        assert 1987 in report.peaks   # 17124 < 19153 > 18560
        assert 1994 in report.peaks   # 20354 < 21248 > 20817
        assert 1981 in report.troughs  # 16127 > 15468 < 16120
        assert 2008 in report.troughs  # 14602 > 14535 < 17160

    def test_monotone_series_has_no_extrema(self):
        report = detect_extrema([(2000 + i, D(i)) for i in range(10)])
        assert report.peaks == () and report.troughs == ()

    def test_too_short(self):
        with pytest.raises(TooShort):
            detect_extrema([(2000, D(1)), (2001, D(2))])

    def test_non_monotone_years_rejected(self):
        with pytest.raises(NonMonotoneYears):
            detect_extrema([(2000, D(1)), (2000, D(2)), (2001, D(3))])

    def test_plateau_attributed_to_first_year(self):
        report = detect_extrema([(1, D(3)), (2, D(5)), (3, D(5)), (4, D(2))])
        assert report.peaks == (2,)
        report = detect_extrema([(1, D(3)), (2, D(1)), (3, D(1)), (4, D(2))])
        assert report.troughs == (2,)

    def test_plateau_touching_endpoint_is_not_an_extremum(self):
        assert detect_extrema([(1, D(5)), (2, D(5)), (3, D(2))]).peaks == ()
        assert detect_extrema([(1, D(3)), (2, D(5)), (3, D(5))]).peaks == ()

    def test_endpoints_never_extrema(self):
        report = detect_extrema([(1, D(9)), (2, D(1)), (3, D(8))])
        assert report.peaks == () and report.troughs == (2,)

    def test_report_disjointness_enforced(self):
        with pytest.raises(ValueError):
            ExtremaReport(peaks=(1990,), troughs=(1990,))
