import csv
import json
from decimal import Decimal as D
from unittest import mock

import pytest

from monmin import (
    AggregateSeries,
    AggregateYear,
    Basket,
    CurrencyCode,
    CurrencyMismatch,
    EconomySnapshot,
    PriceQuote,
    TimeStandard,
    load_basket,
    load_economies,
    load_rates,
    load_series,
    to_monmin,
    MonMinValue,
    write_basket,
    write_economies,
    write_rates,
    write_series,
)
from monmin import ingest

from test_ingest_blocks import block_path_only, row_path, same


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEconomies:
    def test_table1_fixture(self, fixtures):
        snapshots, report = load_economies(fixtures / "economies_table1.csv")
        assert report.ok and report.records_accepted == 6
        us = snapshots[0]
        assert us.country == "United States"
        assert us.currency == CurrencyCode("USD")
        assert abs(us.gdp_per_capita() - 63603) < 1

    def test_scale_directive(self, tmp_path):
        path = put(tmp_path, "e.csv", "# scale=1e9\ncountry,currency,gdp,population,as_of\nX,USD,542,1000,2019-01-01\n")
        snapshots, report = load_economies(path)
        assert report.ok
        assert snapshots[0].gdp == D("542e9")

    def test_empty_file_with_header(self, tmp_path):
        path = put(tmp_path, "e.csv", "country,currency,gdp,population,as_of\n")
        snapshots, report = load_economies(path)
        assert snapshots == [] and report.ok and report.records_accepted == 0

    def test_zero_population_is_error(self, tmp_path):
        path = put(tmp_path, "e.csv",
                   "country,currency,gdp,population,as_of\nX,USD,100,0,2019-01-01\n")
        snapshots, report = load_economies(path)
        assert snapshots == []
        assert len(report.errors) == 1
        assert report.errors[0].line == 2
        assert report.errors[0].message.startswith("NonPositiveInput")

    def test_all_or_nothing(self, tmp_path):
        path = put(tmp_path, "e.csv",
                   "country,currency,gdp,population,as_of\n"
                   "Good,USD,100,10,2019-01-01\n"
                   "Bad,USD,abc,10,2019-01-01\n")
        snapshots, report = load_economies(path)
        assert snapshots == [] and report.records_accepted == 0
        assert [e.line for e in report.errors] == [3]

    def test_a_row_with_a_zero_gdp_and_a_bad_date_is_refused_for_its_gdp(self, tmp_path):
        path = put(tmp_path, "e.csv", "country,currency,gdp,population,as_of\nX,USD,0,10,2019-13-01\n")
        snapshots, report = row_path(load_economies, path)
        assert snapshots == []
        assert report.errors == (ingest.Issue(2, "NonPositiveInput: X: gdp must be > 0, got 0"),)

    def test_duplicate_country(self, tmp_path):
        path = put(tmp_path, "e.csv",
                   "country,currency,gdp,population,as_of\n"
                   "X,USD,100,10,2019-01-01\nX,EUR,100,10,2019-01-01\n")
        _, report = load_economies(path)
        assert report.errors[0].message.startswith("DuplicateCountry")

    def test_bad_header(self, tmp_path):
        path = put(tmp_path, "e.csv", "a,b,c\nX,USD,1\n")
        snapshots, report = load_economies(path)
        assert snapshots == [] and not report.ok

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_economies(tmp_path / "nope.csv")

    def test_wrong_column_count_reports_physical_line(self, tmp_path):
        path = put(tmp_path, "e.csv",
                   "country,currency,gdp,population,as_of\n\nX,USD,100\n")
        _, report = load_economies(path)
        assert report.errors[0].line == 3
        assert report.errors[0].message.startswith("MalformedRow")


class TestPhysicalLayout:
    HEADER = "country,currency,gdp,population,as_of\n"

    def test_bom_prefixed_file_loads_like_the_plain_file(self, fixtures, tmp_path):
        plain = (fixtures / "economies_table1.csv").read_text(encoding="utf-8")
        path = put(tmp_path, "e.csv", "\ufeff" + plain)
        assert load_economies(path) == load_economies(fixtures / "economies_table1.csv")

    def test_crlf_file_loads_like_the_lf_file(self, fixtures, tmp_path):
        plain = (fixtures / "economies_table1.csv").read_text(encoding="utf-8")
        path = tmp_path / "e.csv"
        path.write_bytes(plain.replace("\n", "\r\n").encode("utf-8"))
        assert load_economies(path) == load_economies(fixtures / "economies_table1.csv")

    def test_crlf_error_lines(self, tmp_path):
        path = tmp_path / "e.csv"
        text = self.HEADER + "A,USD,100,10,2019-01-01\n\nB,USD,abc,10,2019-01-01\n"
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        _, report = load_economies(path)
        assert [e.line for e in report.errors] == [4]

    def test_quoted_cell_spanning_lines_is_one_row(self, tmp_path):
        path = put(tmp_path, "e.csv",
                   self.HEADER + '"North\nLand",USD,100,10,2019-01-01\nC,USD,100,10,2019-01-01\n')
        snapshots, report = load_economies(path)
        assert report.ok and report.records_accepted == 2
        assert [s.country for s in snapshots] == ["North\nLand", "C"]

    def test_a_scale_line_inside_a_header_that_spans_lines_is_a_comment(self, tmp_path):
        # the "#" line is dropped from the quoted cell, so the header reads right; only lines before it are directives
        path = put(tmp_path, "e.csv",
                   '"country\n# scale=1e9\n",currency,gdp,population,as_of\nX,USD,542,1000,2019-01-01\n')
        snapshots, report = load_economies(path)
        assert report.ok
        assert snapshots[0].gdp == D("542")

    def test_multi_line_row_issues_carry_its_first_line(self, tmp_path):
        path = put(tmp_path, "e.csv",
                   self.HEADER
                   + '"North\nLand",USD,100,10,2019-01-01\n'  # lines 2-3
                   + "Bad,USD,abc,10,2019-01-01\n"  # line 4
                   + '"Multi\nLine",USD,0,10,2019-01-01\n'  # lines 5-6
                   + "Last,USD,1,0,2019-01-01\n")  # line 7
        _, report = load_economies(path)
        assert [e.line for e in report.errors] == [4, 5, 7]
        assert report.errors[1].message.startswith("NonPositiveInput")

    def test_blank_and_comment_lines_are_never_part_of_a_cell(self, tmp_path):
        path = put(tmp_path, "e.csv",
                   self.HEADER + '"North\n# not text\n\nLand",USD,100,10,2019-01-01\n'
                   + "Bad,USD,abc,10,2019-01-01\n")
        _, report = load_economies(path)
        assert [e.line for e in report.errors] == [6]
        path = put(tmp_path, "e.csv",
                   self.HEADER + '"North\n# not text\nLand",USD,100,10,2019-01-01\n')
        snapshots, _ = load_economies(path)
        assert snapshots[0].country == "North\nLand"

    def test_csv_error_is_a_line_numbered_issue(self, tmp_path):
        path = put(tmp_path, "e.csv",
                   self.HEADER + "A,USD,100,10,2019-01-01\n"
                   + "B" * 200_000 + ",USD,100,10,2019-01-01\n"
                   + "C,USD,abc,10,2019-01-01\n")
        snapshots, report = load_economies(path)
        assert snapshots == []
        assert [e.line for e in report.errors] == [3, 4]
        assert report.errors[0].message == "MalformedRow: field larger than field limit (131072)"

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "inf", "NaN", "sNaN"])
    def test_non_finite_numbers_are_malformed(self, tmp_path, text):
        cases = [
            (load_economies, self.HEADER + f"X,USD,{text},10,2019-01-01\n"),
            (load_rates, f"base,quote,rate,as_of\nUSD,EUR,{text},\n"),
            (load_basket,
             f"country,currency,item,unit,amount,role\nX,USD,Thing,unit,{text},item\n"),
            (load_series, f"year,m1,gdp,population\n1980,{text},2,3\n"),
            (load_series, f"year,m1,gdp,population\n1980,1,{text},3\n"),
        ]
        for loader, body in cases:
            _, report = loader(put(tmp_path, "f.csv", body))
            assert [(e.line, e.message) for e in report.errors] == [
                (2, f"MalformedRow: not a finite number: {text!r}")
            ], loader.__name__


class TestInvalidUtf8:
    """A byte that is not UTF-8 is an issue on its physical line, never a traceback."""

    E9 = "MalformedRow: not valid UTF-8: byte 0xE9 at column {}"

    @pytest.mark.parametrize(
        "loader,body,column",
        [
            (load_economies,
             b"country,currency,gdp,population,as_of\nA,USD,100,10,2019-01-01\nCaf\xe9,USD,100,10,2019-01-01\n", 4),
            (load_rates, b"base,quote,rate,as_of\nUSD,EUR,2,\n# f\xe9e\nEUR,USD,0.5,\n", 4),
            (load_basket,
             b"country,currency,item,unit,amount,role\nA,USD,Bread,kg,1,item\nA,USD,Caf\xe9,cup,2,item\n", 10),
            (load_series, b"year,m1,gdp,population,events\n1980,1,2,3,\n1981,1,2,3,Caf\xe9\n", 15),
        ],
        ids=["economies", "rates", "basket", "series"],
    )
    def test_each_loader(self, tmp_path, loader, body, column):
        path = tmp_path / "f.csv"
        path.write_bytes(body)
        data, report = loader(path)
        assert not data
        assert [(e.line, e.message) for e in report.errors] == [(3, self.E9.format(column))]

    def test_after_a_bom_and_inside_a_multi_line_cell(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes(b"\xef\xbb\xbfcountry,currency,gdp,population,as_of\n"
                         b'"North\nCaf\xe9",USD,100,10,2019-01-01\nB,USD,abc,10,2019-01-01\n')
        _, report = load_economies(path)
        assert [(e.line, e.message) for e in report.errors] == [
            (3, self.E9.format(4)), (4, "MalformedRow: [<class 'decimal.ConversionSyntax'>]"),
        ]

    # 3,056 rows end exactly at a block (16 + 32 + 64 + 128 + 11 * 256 rows), so the line after them is read
    # only once that block is made
    @pytest.mark.parametrize("rows", [0, 3056], ids=["no-rows", "a-last-full-block"])
    def test_in_a_comment_after_the_last_row_of_a_large_file(self, tmp_path, rows):
        """The block path reads that line only after its last block, and must still leave the file to the row path."""
        path = tmp_path / "e.csv"
        body = "".join(f"Land {i},USD,{i}.5,{i + 1},2019-01-01\n" for i in range(rows)).encode()
        path.write_bytes(b"country,currency,gdp,population,as_of\n" + body + b"# a note\n" * 8000 + b"# caf\xe9\n")
        assert path.stat().st_size > ingest._BLOCK_CHARS
        data, report = load_economies(path)
        assert not data
        assert [(e.line, e.message) for e in report.errors] == [(rows + 8002, self.E9.format(6))]

    def test_valid_non_ascii_text_loads(self, tmp_path):
        path = put(tmp_path, "e.csv",
                   "country,currency,gdp,population,as_of\nČesko,CZK,100,10,2019-01-01\n")
        snapshots, report = load_economies(path)
        assert report.ok and snapshots[0].country == "Česko"


class TestBlockPathAlone:
    """A clean file of at least one block that the block path loads without the row path."""

    def test_series_rows_with_and_without_events_in_one_block(self, tmp_path):
        path = put(tmp_path, "s.csv", "year,m1,gdp,population,events\n" + "".join(
            f"{1000 + t},{t}.5,{t + 1}.25,{t + 5}" + (",War\n" if t % 2 else "\n") for t in range(3000)
        ))
        with mock.patch.object(ingest, "_BLOCK_CHARS", 1):
            got = block_path_only(load_series, path)
        same(got, row_path(load_series, path))
        assert got[0].years[1].events == "War" and got[0].years[2].events == ""


class TestLoadRates:
    def test_table2_fixture(self, fixtures):
        table, report = load_rates(fixtures / "rates_table2.csv")
        assert report.ok and len(table) == 4
        eur = table.get("USD", "EUR")
        assert eur.rate == D("1.1325")

    def test_reciprocal_pair_clean(self, tmp_path):
        path = put(tmp_path, "r.csv",
                   "base,quote,rate,as_of\nUSD,EUR,2.0,\nEUR,USD,0.5,\n")
        table, report = load_rates(path)
        assert report.ok and report.warnings == ()

    def test_reciprocal_pair_warns(self, tmp_path):
        path = put(tmp_path, "r.csv",
                   "base,quote,rate,as_of\nUSD,EUR,2.0,\nEUR,USD,0.4,\n")
        table, report = load_rates(path)
        assert report.ok and len(table) == 2
        assert len(report.warnings) == 1
        assert report.warnings[0].line == 3
        assert "0.8" in report.warnings[0].message

    @pytest.mark.parametrize("fwd,back,refused", [
        ("9E+999999", "9E+999999", [2, 3]),
        ("1E-999999", "1E-999999", [2, 3]),
        ("3E-999990", "3.3E-30", [2]),
        ("3E-999990", "1.23456789E-30", [2]),
        ("1", "1E+100000", [3]),
        ("1E-100000", "1", [2]),
    ])
    def test_a_rate_past_the_input_range_is_refused_on_its_line(self, tmp_path, fwd, back, refused):
        """Such a pair's product once left the decimal range, or lost digits below it."""
        path = put(tmp_path, "r.csv", f"base,quote,rate,as_of\nUSD,EUR,{fwd},2019-01-01\nEUR,USD,{back},\n")
        table, report = load_rates(path)
        assert len(table) == 0 and report.warnings == ()
        texts = {2: fwd, 3: back}
        assert report.errors == tuple(
            ingest.Issue(line, f"MalformedRow: {texts[line]!r} is outside the input range (exponent -99999 to 99999)")
            for line in refused
        )

    @pytest.mark.parametrize("fwd,back,product", [
        ("9.99E+99999", "9.99E+99999", "9.98001E+199999"),
        ("1E-99999", "1E-99999", "1E-199998"),
        ("9.99E+99999", "1E-99999", "9.99"),
    ])
    def test_a_pair_at_the_edges_of_the_range_warns_with_its_product(self, tmp_path, fwd, back, product):
        path = put(tmp_path, "r.csv", f"base,quote,rate,as_of\nUSD,EUR,{fwd},\nEUR,USD,{back},\n")
        table, report = load_rates(path)
        assert report.ok and len(table) == 2
        assert report.warnings == (
            ingest.Issue(3, f"reciprocal rates EUR->USD and USD->EUR multiply to {product}, expected 1"),
        )

    def test_duplicate_pair(self, tmp_path):
        path = put(tmp_path, "r.csv",
                   "base,quote,rate,as_of\nUSD,EUR,2.0,\nUSD,EUR,2.1,\n")
        table, report = load_rates(path)
        assert len(table) == 0
        assert report.errors[0].message.startswith("DuplicatePair")

    def test_non_positive_rate(self, tmp_path):
        path = put(tmp_path, "r.csv", "base,quote,rate,as_of\nUSD,EUR,0,\n")
        _, report = load_rates(path)
        assert report.errors[0].message.startswith("NonPositiveInput")


class TestBasket:
    USD = CurrencyCode("USD")
    EUR = CurrencyCode("EUR")

    def test_item_in_another_currency_rejected(self):
        with pytest.raises(CurrencyMismatch, match="Bread is priced in EUR"):
            Basket("X", self.USD, (PriceQuote("Milk", "1 l", self.USD, D(1)),
                                   PriceQuote("Bread", "kg", self.EUR, D(2))))

    def test_salary_in_another_currency_rejected(self):
        with pytest.raises(CurrencyMismatch, match="Salary is priced in EUR"):
            Basket("X", self.USD, (), PriceQuote("Salary", "month", self.EUR, D(2000)))

    def test_equal_codes_from_distinct_objects_accepted(self):
        quote = PriceQuote("Milk", "1 l", CurrencyCode("USD"), D(1))
        basket = Basket("X", self.USD, (quote,), PriceQuote("Salary", "month", CurrencyCode("USD"), D(9)))
        assert basket.items == (quote,)


class TestLoadBasket:
    def test_commodities_fixture(self, fixtures):
        baskets, report = load_basket(fixtures / "basket_commodities.csv")
        assert report.ok and report.records_accepted == 24
        assert [b.currency.code for b in baskets] == ["USD", "CZK", "EUR", "GBP"]
        gold = next(q for q in baskets[0].items if q.item == "Gold")
        assert gold.unit == "1 oz" and gold.amount == D("1447.00")
        assert all(b.salary is None for b in baskets)

    def test_food_fixture_salary_rows(self, fixtures):
        baskets, report = load_basket(fixtures / "basket_food.csv")
        assert report.ok and len(baskets) == 6
        assert all(b.salary is not None for b in baskets)
        assert all(len(b.items) == 27 for b in baskets)

    def test_mcmeal_germany_converts_to_96(self, tmp_path):
        path = put(tmp_path, "b.csv",
                   "country,currency,item,unit,amount,role\n"
                   "Germany,EUR,McMeal,meal,7.46,item\n")
        baskets, report = load_basket(path)
        assert report.ok
        cm = MonMinValue(CurrencyCode("EUR"), D("0.0777222"))
        monmin = to_monmin(baskets[0].items[0], cm).monmin
        assert abs(monmin.quantize(D(1)) - 96) <= 1

    def test_zero_amount_accepted(self, tmp_path):
        path = put(tmp_path, "b.csv",
                   "country,currency,item,unit,amount,role\nX,USD,Free,unit,0.00,item\n")
        baskets, report = load_basket(path)
        assert report.ok and baskets[0].items[0].amount == 0

    def test_unknown_currency_when_cross_referencing(self, tmp_path):
        path = put(tmp_path, "b.csv",
                   "country,currency,item,unit,amount,role\nX,CHF,Thing,unit,1,item\n")
        baskets, report = load_basket(path, known_currencies={"USD", "EUR"})
        assert baskets == []
        assert report.errors[0].message.startswith("UnknownCurrency")

    def test_bad_role(self, tmp_path):
        path = put(tmp_path, "b.csv",
                   "country,currency,item,unit,amount,role\nX,USD,Thing,unit,1,price\n")
        _, report = load_basket(path)
        assert report.errors[0].message.startswith("MalformedRow")

    def test_second_salary_row_rejected(self, tmp_path):
        path = put(tmp_path, "b.csv",
                   "country,currency,item,unit,amount,role\n"
                   "X,USD,Salary,month,100,salary\nX,USD,Salary2,month,200,salary\n")
        _, report = load_basket(path)
        assert "duplicate salary" in report.errors[0].message

    def test_equal_texts_share_one_object(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_food.csv")
        first = baskets[0].items + (baskets[0].salary,)
        for basket in baskets[1:]:
            for quote, ours in zip(basket.items + (basket.salary,), first):
                assert quote.item is ours.item and quote.unit is ours.unit
        units = {}
        for quote in first:
            assert units.setdefault(quote.unit, quote.unit) is quote.unit

    def test_quoted_item_names_with_commas(self, tmp_path):
        path = put(tmp_path, "b.csv",
                   'country,currency,item,unit,amount,role\n'
                   'X,USD,"Meal, Inexpensive Restaurant",restaurant,14.88,item\n')
        baskets, report = load_basket(path)
        assert report.ok
        assert baskets[0].items[0].item == "Meal, Inexpensive Restaurant"


class TestLoadSeries:
    def test_table5_fixture(self, fixtures):
        series, report = load_series(fixtures / "series_us.csv")
        assert report.ok and report.records_accepted == 57
        assert series.years[0].year == 1960
        assert series.years[0].m1 == D("140e9")
        assert series.years[0].gdp == D("542e9")
        assert series.years[0].population == 180671000
        assert series.years[0].events == "Recession."
        assert series.years[-1].year == 2016

    def test_duplicate_year(self, tmp_path):
        path = put(tmp_path, "s.csv",
                   "year,m1,gdp,population,events\n1980,1,2,3,\n1980,1,2,3,\n")
        series, report = load_series(path)
        assert series is None
        assert report.errors[0].message.startswith("NonMonotoneYears")

    def test_negative_gdp(self, tmp_path):
        path = put(tmp_path, "s.csv", "year,m1,gdp,population,events\n1980,1,-1,3,\n")
        series, report = load_series(path)
        assert series is None
        assert report.errors[0].message.startswith("NonPositiveInput")

    def test_events_column_optional(self, tmp_path):
        path = put(tmp_path, "s.csv", "year,m1,gdp,population\n1980,1,2,3\n")
        series, report = load_series(path)
        assert report.ok and series.years[0].events == ""

    def test_header_only_is_empty_series(self, tmp_path):
        path = put(tmp_path, "s.csv", "year,m1,gdp,population,events\n")
        series, report = load_series(path)
        assert series is None
        assert report.errors[0].message.startswith("EmptySeries")

    def test_header_only_after_a_comment_is_empty_series_on_the_header_line(self, tmp_path):
        path = put(tmp_path, "s.csv", "# US money stock\nyear,m1,gdp,population,events\n")
        series, report = load_series(path)
        assert series is None
        assert [(e.line, e.message) for e in report.errors] == [(2, "EmptySeries: no data rows")]

    def test_custom_currency_and_standard(self, tmp_path):
        path = put(tmp_path, "s.csv", "year,m1,gdp,population,events\n1980,1,2,3,\n")
        series, _ = load_series(
            path, currency=CurrencyCode("CZK"), std=TimeStandard(D("525948.766"))
        )
        assert series.currency == CurrencyCode("CZK")
        assert series.std.minutes_per_year == D("525948.766")


class TestRoundTrips:
    def test_economies(self, fixtures, tmp_path):
        first, _ = load_economies(fixtures / "economies_table1.csv")
        out = tmp_path / "e.csv"
        write_economies(out, first)
        second, report = load_economies(out)
        assert report.ok and second == first

    def test_rates(self, fixtures, tmp_path):
        first, _ = load_rates(fixtures / "rates_table2.csv")
        out = tmp_path / "r.csv"
        write_rates(out, first)
        second, report = load_rates(out)
        assert report.ok and second == first

    def test_basket(self, fixtures, tmp_path):
        first, _ = load_basket(fixtures / "basket_food.csv")
        out = tmp_path / "b.csv"
        write_basket(out, first)
        second, report = load_basket(out)
        assert report.ok and second == first

    def test_series(self, fixtures, tmp_path):
        first, _ = load_series(fixtures / "series_us.csv")
        out = tmp_path / "s.csv"
        write_series(out, first)
        second, report = load_series(out)
        assert report.ok and second == first


class TestIssueGoldens:
    """Every issue each loader emits, pinned byte for byte: one dirty fixture per format."""

    LOADS = {
        "economies": (load_economies, {}),
        "rates": (load_rates, {}),
        # "usd" passes the known-set check, so the code check still runs on it
        "basket": (load_basket, {"known_currencies": ["USD", "EUR", "usd"]}),
        "series": (load_series, {}),
    }

    @pytest.mark.parametrize("fmt", LOADS)
    def test_issues_match_golden(self, fixtures, golden_dir, fmt):
        loader, kwargs = self.LOADS[fmt]
        limit = csv.field_size_limit(64)  # so a short cell can raise csv.Error
        try:
            data, report = loader(fixtures / f"dirty_{fmt}.csv", **kwargs)
        finally:
            csv.field_size_limit(limit)
        assert not data and not report.warnings and report.records_accepted == 0
        got = "".join(json.dumps(list(issue)) + "\n" for issue in report.errors)
        assert got == (golden_dir / f"ingest_{fmt}.issues").read_text(encoding="utf-8")


class TestWriterCarriesEveryCell:
    """What a writer writes loads back equal, or the writer refuses the cell."""

    @staticmethod
    def economy(country, gdp="100"):
        return EconomySnapshot(country, CurrencyCode("USD"), D(gdp), 10, "2019-01-01")

    @pytest.mark.parametrize("country", ["#1 Land", "a\rb"])
    def test_hash_first_cell_and_carriage_return_round_trip(self, tmp_path, country):
        first = [self.economy("A"), self.economy(country), self.economy("Z")]
        out = tmp_path / "e.csv"
        write_economies(out, first)
        second, report = load_economies(out)
        assert report.ok and second == first

    def test_hash_first_cell_of_a_basket_round_trips(self, tmp_path):
        usd = CurrencyCode("USD")
        first = [Basket("#1 Land", usd, (PriceQuote("Bread", "kg", usd, D(2)),),
                        PriceQuote("Wage", "month", usd, D(3000)))]
        out = tmp_path / "b.csv"
        write_basket(out, first)
        second, report = load_basket(out)
        assert report.ok and second == first

    @pytest.mark.parametrize("country", ["a\n\nb", "a\n \nb", "a\n#b", "a\r\r\nb", "a\n  # b"])
    def test_cell_with_a_blank_or_hash_line_is_refused(self, tmp_path, country):
        out = tmp_path / "e.csv"
        with pytest.raises(ValueError, match="record 2, column 'country'"):
            write_economies(out, [self.economy("A"), self.economy(country)])

    @pytest.mark.parametrize("country", ["a\n\nb", "a\n#b"])
    def test_refused_write_leaves_no_file(self, tmp_path, country):
        out = tmp_path / "e.csv"
        out.write_text("country,currency,gdp,population,as_of\n", encoding="utf-8")
        with pytest.raises(ValueError, match="record 2, column 'country'"):
            write_economies(out, [self.economy("A"), self.economy(country), self.economy("Z")])
        assert not out.exists()

    @pytest.mark.parametrize("country", ["a\n", "a\n ", "a\r", " A", "A ", "\tA\n"])
    def test_surrounding_whitespace_loads_back_stripped(self, tmp_path, country):
        out = tmp_path / "e.csv"
        write_economies(out, [self.economy(country), self.economy("Z")])
        second, report = load_economies(out)
        assert report.ok and second == [self.economy(country.strip()), self.economy("Z")]

    def test_hash_line_in_a_later_column_is_refused(self, tmp_path):
        usd = CurrencyCode("USD")
        series = AggregateSeries(usd, (AggregateYear(1980, 1, 2, 3, "war\n# years"),))
        with pytest.raises(ValueError, match="record 1, column 'events'"):
            write_series(tmp_path / "s.csv", series)

    def test_numbers_without_a_scale_are_kept_exactly(self, tmp_path):
        wide = "123456789012345678901234567890"
        first = [self.economy("A", wide)]
        out = tmp_path / "e.csv"
        write_economies(out, first)
        second, report = load_economies(out)
        assert report.ok and second == first and str(second[0].gdp) == wide
