import dataclasses
import decimal
import io
import os
import random
import subprocess
import sys
import tracemalloc
from unittest import mock
from datetime import date
from decimal import Decimal as D
from pathlib import Path

import pytest

import monmin
from monmin import (
    AggregateSeries,
    AggregateYear,
    Basket,
    ColumnRule,
    CmSource,
    CurrencyCode,
    CurrencyMismatch,
    EconomySnapshot,
    ExchangeRate,
    MonMinValue,
    NonPositiveInput,
    PriceQuote,
    ShapeMismatch,
    TableId,
    TableSpec,
    TimeStandard,
    build_basket_listing,
    build_percent_listing,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_table4b,
    build_table5,
    detect_extrema,
    emit_plot_data,
    load_basket,
    load_economies,
    load_rates,
    load_series,
    render_table,
    round_half_away,
    round_significant,
    series_in_monmin,
    write_table,
)
from monmin import report
from monmin.errors import UnknownCurrency

from expected_tables import TABLE2_MANUAL, TABLE3_CM, TABLE4_COUNTRIES
from oracles import brute_force_extrema, reference_percent, reference_plot_data, reference_render


def manual(code, value):
    return MonMinValue(CurrencyCode(code), D(value), CmSource.MANUAL)


class TestRounding:
    @pytest.mark.parametrize(
        "value,decimals,expected",
        [
            ("11958.579", 0, "11959"),
            ("0.5", 0, "1"),
            ("1.5", 0, "2"),
            ("2.5", 0, "3"),          # ties away from zero, not banker's
            ("-2.5", 0, "-3"),
            ("4341.595", 2, "4341.60"),
            ("0.1210094732", 7, "0.1210095"),
            ("0.475509", 2, "0.48"),
            ("0.0001", 2, "0.00"),
        ],
    )
    def test_half_away(self, value, decimals, expected):
        assert str(round_half_away(D(value), decimals)) == expected

    @pytest.mark.parametrize(
        "value,figures,expected",
        [
            ("0.13497135", 6, D("0.134971")),
            ("0.00023033", 6, D("0.00023033")),
            ("123456.789", 3, D("123000")),
            ("0", 6, D("0")),
        ],
    )
    def test_significant(self, value, figures, expected):
        assert round_significant(D(value), figures) == expected


class TestRenderTable:
    SPEC = TableSpec(
        TableId.T1,
        (ColumnRule("name"), ColumnRule("value", decimals=2), ColumnRule("count", decimals=0)),
    )

    def test_csv(self):
        text = render_table(self.SPEC, [{"name": "a,b", "value": D("1.005"), "count": 7}])
        assert text == 'name,value,count\n"a,b",1.01,7\n'

    def test_unknown_format_writes_nothing(self):
        sink = io.StringIO()
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            write_table(self.SPEC, [{"name": "a", "value": D(1), "count": 2}], sink, fmt="xml")
        assert sink.getvalue() == ""

    @pytest.mark.parametrize("text", ['a"b', '"', "a,b", "a\nb", "a\rb", "a\r\nb", " a ", ""])
    def test_verbatim_cells_quoted_as_csv_writer_quotes_them(self, text):
        rows = [{"name": name, "value": D(1), "count": 2} for name in ("plain", text, "after")]
        assert render_table(self.SPEC, rows) == reference_render(self.SPEC, rows, "csv")

    def test_cells_wider_than_28_digits_print_every_digit(self):
        for fmt in ("csv", "text"):
            text = render_table(self.SPEC, [{"name": "x", "value": D("-1.25E+27"), "count": D("1E+40")}], fmt)
            cells = text.splitlines()[1].replace(",", " ").split()
            assert cells == ["x", "-125" + "0" * 25 + ".00", "1" + "0" * 40]

    def test_text_alignment(self):
        text = render_table(
            self.SPEC,
            [{"name": "x", "value": D("1.005"), "count": 7},
             {"name": "longer", "value": D("12.3"), "count": 1234}],
            fmt="text",
        )
        lines = text.splitlines()
        assert lines[0] == "name    value  count"
        assert lines[1] == "x        1.01      7"
        assert lines[2] == "longer  12.30   1234"

    def test_empty_dataset_renders_header_only(self):
        assert render_table(self.SPEC, []) == "name,value,count\n"

    def test_a_table_of_no_columns_keeps_every_row_across_blocks(self):
        spec, rows = TableSpec(TableId.T1, ()), [{}] * 10
        with mock.patch.object(report, "_BLOCK_CELLS", 4):  # blocks of 4 rows start at 0, 4 and 8
            for fmt in ("csv", "text"):
                assert render_table(spec, rows, fmt) == reference_render(spec, rows, fmt) == "\n" * 11

    def test_shape_mismatch(self):
        expected = "table 1 row 1: expected columns ['name', 'value', 'count'], got "
        good = {"name": "a", "value": D(1), "count": 1}
        for fmt in ("csv", "text"):
            with pytest.raises(ShapeMismatch) as missing:
                render_table(self.SPEC, [good, {"name": "a", "value": D(1)}], fmt)
            assert str(missing.value) == expected + "['name', 'value']"
            with pytest.raises(ShapeMismatch) as extra:
                render_table(self.SPEC, [good, {**good, "extra": 2}], fmt)
            assert str(extra.value) == expected + "['count', 'extra', 'name', 'value']"

    def test_shape_mismatch_with_a_renamed_column(self):
        renamed = {"name": "a", "value": D(1), "total": 1}
        for fmt in ("csv", "text"):
            with pytest.raises(ShapeMismatch) as caught:
                render_table(self.SPEC, [renamed], fmt)
            assert str(caught.value) == (
                "table 1 row 0: expected columns ['name', 'value', 'count'], "
                "got ['name', 'total', 'value']"
            )

    def test_whole_number_past_the_int_to_text_limit(self):
        text = render_table(self.SPEC, [{"name": "x", "value": D(0), "count": 10**5000}])
        assert text.splitlines()[1] == "x,0.00,1" + "0" * 5000

    def test_deterministic(self):
        rows = [{"name": "a", "value": D("1.3333"), "count": 2}]
        assert render_table(self.SPEC, rows) == render_table(self.SPEC, rows)

    def test_rounding_not_compounded(self):
        # 0.4445 -> 0.44 in one step; a 3-then-2 double rounding would give 0.45
        text = render_table(self.SPEC, [{"name": "x", "value": D("0.4445"), "count": 0}])
        assert "0.44" in text


class TestRenderUnderCallerContext:
    """Cells round under report's own context: the caller's does not reach them."""

    SPEC = TableSpec(
        TableId.T1,
        (
            ColumnRule("name"),
            ColumnRule("whole", decimals=0),
            ColumnRule("cm", decimals=7),
            ColumnRule("sig", sig_figures=6),
        ),
    )
    ROWS = [
        {"name": "a", "whole": D("2.5"), "cm": D("0.1242022112657979514986909670"), "sig": D("0.13497135")},
        {"name": "b", "whole": D("1E+40"), "cm": D("-0.00000004"), "sig": D("123456.789")},
        {"name": "c", "whole": D("-0.4"), "cm": D("9.5E-8"), "sig": D("1E+40")},
    ]

    @pytest.mark.parametrize(
        "context",
        [
            decimal.Context(prec=6),
            decimal.Context(rounding=decimal.ROUND_FLOOR),
            decimal.Context(traps=[decimal.Inexact]),
            decimal.Context(traps=[decimal.Rounded]),
            decimal.Context(capitals=0),
        ],
        ids=["prec-6", "round-floor", "trap-inexact", "trap-rounded", "lower-case-exponent"],
    )
    def test_identical_bytes(self, context):
        expected = {fmt: render_table(self.SPEC, self.ROWS, fmt) for fmt in ("csv", "text")}
        with decimal.localcontext(context):
            assert {fmt: render_table(self.SPEC, self.ROWS, fmt) for fmt in expected} == expected
        assert expected["csv"].splitlines() == [
            "name,whole,cm,sig",
            "a,3,0.1242022,0.134971",
            "b,1" + "0" * 40 + ",0.0000000,123457",
            "c,0,0.0000001,1" + "0" * 40,
        ]

    def test_default_context_changed_before_import(self):
        """The display context takes no field from ``decimal.DefaultContext``."""
        script = (
            "import decimal\n"
            "decimal.DefaultContext.traps[decimal.Inexact] = True\n"
            "decimal.DefaultContext.rounding = decimal.ROUND_FLOOR\n"
            "from monmin.report import ColumnRule, format_cell\n"
            "print(format_cell(ColumnRule('x', decimals=2), decimal.Decimal('1.005')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(monmin.__file__).parent.parent)}
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert (result.returncode, result.stdout) == (0, "1.01\n"), result.stderr

    def test_round_half_away(self):
        hostile = decimal.Context(prec=3, rounding=decimal.ROUND_FLOOR,
                                  traps=[decimal.Inexact, decimal.Rounded])
        with decimal.localcontext(hostile):
            rounded = round_half_away(D("1.005"), 2)
        assert (rounded, str(rounded)) == (D("1.01"), "1.01")


class TestTable1:
    def test_czech_row_prints_7_decimals(self, fixtures):
        snapshots, _ = load_economies(fixtures / "economies_table1.csv")
        spec, rows = build_table1(snapshots, TimeStandard())
        text = render_table(spec, rows)
        assert "0.9519794" in text
        assert "0.1210095" in text
        row = next(r for r in rows if r["country"] == "Czech Republic")
        assert row["source"] == "computed_from_gdp"


    def test_rows_are_made_while_they_are_written(self, tmp_path):
        """20k rows written to a file add no more than a row or two to the traced peak.

        Held as dicts and rendered to one string first, they would add about 13 MB.
        """
        usd = CurrencyCode("USD")
        as_of = date(2019, 1, 1)
        snapshots = [
            EconomySnapshot(f"Country {i}", usd, D(10**12 + i), 1000 + i, as_of) for i in range(20_000)
        ]
        target = tmp_path / "table1.csv"
        tracemalloc.start()
        try:
            spec, rows = build_table1(snapshots)
            with open(target, "w", encoding="utf-8", newline="") as sink:
                write_table(spec, rows, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 20_000
        assert target.read_text(encoding="utf-8").count("\n") == 20_001
        assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.1f} MB"

    def test_minute_value_that_underflows_to_zero_is_refused(self):
        tiny = EconomySnapshot("Tiny", CurrencyCode("USD"), D("1E-999999"), 10**30, date(2019, 1, 1))
        spec, rows = build_table1([tiny])
        with pytest.raises(NonPositiveInput) as caught:
            render_table(spec, rows)
        assert str(caught.value) == "minute value must be > 0, got 0E-1000026 USD"

    def test_a_snapshot_built_past_the_range_raises_decimal_overflow(self):
        """A caller's context that lets a quotient overflow to infinity does not; the CLI refuses ``--tetcy 1E-999999``."""
        big = EconomySnapshot("Big", CurrencyCode("USD"), D("1E+400"), 10, date(2019, 1, 1))
        spec, rows = build_table1([big], TimeStandard(D("1E-999999")))
        with decimal.localcontext(decimal.Context(traps=[decimal.InvalidOperation])):
            with pytest.raises(decimal.Overflow):
                render_table(spec, rows)

    def test_figures_do_not_follow_the_caller_context(self, fixtures):
        """Built and written under ``Context(prec=6)``, the United States cm still prints ``0.1210095``."""
        snapshots, _ = load_economies(fixtures / "economies_table1.csv")
        with decimal.localcontext(decimal.Context(prec=6)):
            lines = render_table(*build_table1(snapshots)).splitlines()
        assert lines[1] == "United States,USD,20891400000000,328467812,63603,0.1210095,computed_from_gdp"

    def test_a_minute_value_that_rounds_to_zero_prints_fixed_point(self):
        """The quantized cm is ``0E-7``; its cell reads ``0.0000000``, never the scientific text."""
        tiny = EconomySnapshot("Tiny", CurrencyCode("USD"), D(1), 10**9, date(2019, 1, 1))
        lines = render_table(*build_table1([tiny])).splitlines()
        assert lines[1] == "Tiny,USD,1,1000000000,0,0.0000000,computed_from_gdp"

    def test_rows_replay_and_snapshots_are_taken_once(self, fixtures):
        snapshots, _ = load_economies(fixtures / "economies_table1.csv")
        spec, rows = build_table1(snapshots, TimeStandard())
        first = list(rows)
        snapshots.clear()
        assert list(rows) == first and len(rows) == 6


    @pytest.mark.parametrize("k", [1, 57])
    def test_a_refused_row_leaves_the_rows_before_it_written(self, k):
        """Row k of the first block cannot be made: the header and rows 0..k-1 are on the sink."""
        usd, as_of = CurrencyCode("USD"), date(2019, 1, 1)
        snapshots = [EconomySnapshot(f"C{i}", usd, D(10**12 + i), 1000 + i, as_of) for i in range(200)]
        snapshots[k] = EconomySnapshot("Tiny", usd, D("1E-999999"), 10**30, as_of)
        sink = io.StringIO()
        with pytest.raises(NonPositiveInput, match="minute value must be > 0"):
            write_table(*build_table1(snapshots), sink)
        assert sink.getvalue() == render_table(*build_table1(snapshots[:k]))
        assert sink.getvalue().count("\n") == 1 + k

    def test_a_cell_that_cannot_be_formatted_leaves_the_rows_before_it_written(self):
        spec = TestRenderTable.SPEC
        rows = [{"name": f"r{i}", "value": D(i), "count": i} for i in range(100)]
        rows[40]["value"] = "not a number"
        sink = io.StringIO()
        with pytest.raises(decimal.InvalidOperation):
            write_table(spec, rows, sink)
        assert sink.getvalue() == render_table(spec, rows[:40])

    def test_many_blocks_render_like_the_per_cell_reference(self):
        usd, as_of = CurrencyCode("USD"), date(2019, 1, 1)
        snapshots = [
            EconomySnapshot(f"Land {i}, Rep." if i % 5 == 0 else f"Land {i}", usd,
                            D(f"{10**9 + i * 7919}.{i % 1000:03d}"), 1000 + i, as_of)
            for i in range(2000)
        ]
        spec, rows = build_table1(snapshots)
        assert len(rows) * len(spec.columns) > 10 * report._BLOCK_CELLS
        for fmt in ("csv", "text"):
            assert render_table(spec, rows, fmt) == reference_render(spec, list(rows), fmt)


class TestTable2:
    def test_eur_derived_others_manual(self, fixtures):
        rates, _ = load_rates(fixtures / "rates_table2.csv")
        overrides = {code: manual(code, value) for code, value in TABLE2_MANUAL.items()}
        spec, rows = build_table2(manual("USD", "0.11918"), rates, overrides)
        by_code = {r["currency"]: r for r in rows}
        assert by_code["EUR"]["source"] == "cross_rate"
        assert by_code["GBP"]["source"] == "manual"
        assert by_code["USD"]["rate"] == "1"
        assert abs(by_code["EUR"]["cm"] - D("0.134971")) <= D("5e-6")
        text = render_table(spec, rows)
        assert "0.134971," in text
        assert "8.39" in text and "4341.60" in text

    def test_rate_base_must_match(self, fixtures):
        rates, _ = load_rates(fixtures / "rates_table2.csv")
        from monmin import CurrencyMismatch

        with pytest.raises(CurrencyMismatch):
            build_table2(manual("CZK", "1"), rates)

    def test_rate_base_must_match_even_with_an_override(self):
        usd, eur, gbp = CurrencyCode("USD"), CurrencyCode("EUR"), CurrencyCode("GBP")
        rates = [ExchangeRate(usd, eur, D("0.9")), ExchangeRate(eur, gbp, D("0.8"))]
        with pytest.raises(CurrencyMismatch, match="^rate EUR->GBP does not start from USD$"):
            build_table2(manual("USD", "0.11918"), rates, {"GBP": manual("GBP", "0.1")})

    def test_override_without_rate_row_rejected(self, fixtures):
        rates, _ = load_rates(fixtures / "rates_table2.csv")
        with pytest.raises(UnknownCurrency):
            build_table2(manual("USD", "0.11918"), rates, {"CHF": manual("CHF", "1")})


class TestTable3:
    def cms(self):
        return {code: manual(code, value) for code, value in TABLE3_CM.items()}

    def test_gold_row(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_commodities.csv")
        spec, rows = build_table3(baskets, self.cms())
        gold = next(r for r in rows if r["item"] == "Gold")
        assert abs(round_half_away(gold["monmin_USD"], 0) - 11958) <= 1
        assert abs(round_half_away(gold["monmin_CZK"], 0) - 34603) <= 1
        assert abs(round_half_away(gold["monmin_GBP"], 0) - 79155) <= 1

    def test_missing_cm_is_unknown_currency(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_commodities.csv")
        cms = self.cms()
        del cms["GBP"]
        with pytest.raises(UnknownCurrency):
            build_table3(baskets, cms)

    def test_two_baskets_in_one_currency_are_refused(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_commodities.csv")
        twin = dataclasses.replace(baskets[0], country="Elsewhere")
        with pytest.raises(ShapeMismatch, match="^table 3 needs one basket per currency context$"):
            build_table3([*baskets, twin], self.cms())


class TestTable4And4b:
    def cms(self):
        return {code: manual(code, value) for _, code, value in TABLE4_COUNTRIES}

    def test_mcmeal_row(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_food.csv")
        spec, rows = build_table4(baskets, self.cms())
        mcmeal = next(r for r in rows if r["item"].startswith("McMeal"))
        assert round_half_away(mcmeal["United States"], 0) == 58
        assert round_half_away(mcmeal["Germany"], 0) == 96
        salary = rows[-1]
        assert salary["item"].startswith("Average Monthly Net Salary")
        assert round_half_away(salary["Japan"], 0) == 34409

    def test_percent_table(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_food.csv")
        spec, rows = build_table4b(baskets)
        mcmeal = next(r for r in rows if r["item"].startswith("McMeal"))
        assert abs(mcmeal["United States"] - D("0.22")) <= D("0.005")
        assert rows[-1]["United States"] == 100
        text = render_table(spec, rows)
        assert text.splitlines()[-1].endswith("100.00,100.00,100.00,100.00,100.00,100.00")

    def test_a_salary_wider_than_the_context_still_reads_100(self):
        """The salary row is made like every other: ``100 * (amount / 1) / salary``, exactly 100."""
        usd, eur = CurrencyCode("USD"), CurrencyCode("EUR")
        wide = D("123456789012345678901234567890123.456789")  # 39 digits, rounded by ``/ 1``
        baskets = [
            Basket(country, code, (PriceQuote("Bread", "kg", code, D(7)),),
                   PriceQuote("Salary", "month", code, salary))
            for country, code, salary in (("A", usd, wide), ("B", eur, D("2000")))
        ]
        spec, rows = build_table4b(baskets)
        assert len(rows) == 2
        assert rows[-1] == {"item": "Salary", "unit": "month", "A": 100, "B": 100}
        assert render_table(spec, rows).splitlines()[-1] == "Salary,month,100.00,100.00"

    def test_amounts_below_the_decimal_range_round_like_their_salary(self):
        """An amount is rounded by ``/ 1`` as its salary is, so a salary of ``1.5E-1000026`` (rounded to
        ``2E-1000026``) still reads 100, in table 4b and in the percent listing, as the per-quote way gives."""
        usd, eur = CurrencyCode("USD"), CurrencyCode("EUR")
        tiny = D("1.5E-1000026")  # one digit below the smallest subnormal exponent
        baskets = [
            Basket(country, code, (PriceQuote("Bread", "kg", code, tiny),), PriceQuote("Salary", "month", code, salary))
            for country, code, salary in (("A", usd, tiny), ("B", eur, D("1E-1000026")))
        ]
        spec, rows = build_table4b(baskets)
        assert render_table(spec, rows).splitlines()[1:] == ["Bread,kg,100.00,200.00", "Salary,month,100.00,100.00"]
        spec, view = build_percent_listing(baskets)
        assert [row["percent"] for row in view] == [
            reference_percent(quote, basket.salary) for basket in baskets for quote, _ in basket.quotes()
        ] == [100, 100, 200, 100]
        assert render_table(spec, view).splitlines()[1:] == [
            "A,USD,Bread,kg,100.00", "A,USD,Salary,month,100.00", "B,EUR,Bread,kg,200.00", "B,EUR,Salary,month,100.00",
        ]

    def test_salary_in_only_some_baskets_is_refused(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_food.csv")
        unpaid = dataclasses.replace(baskets[1], salary=None)
        with pytest.raises(ShapeMismatch, match="^either every basket carries a salary row or none does$"):
            build_table4([baskets[0], unpaid, *baskets[2:]], self.cms())

    def test_salary_required_for_percent(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_commodities.csv")
        with pytest.raises(ShapeMismatch):
            build_table4b(baskets)


class TestBasketsInOtherOrders:
    """Tables 3, 4 and 4b line up each basket's amounts with the first basket's labels."""

    def cms(self):
        return {code: manual(code, value) for _, code, value in TABLE4_COUNTRIES}

    BUILDS = [
        lambda baskets, cms: build_table3(baskets, cms),
        lambda baskets, cms: build_table4(baskets, cms),
        lambda baskets, cms: build_table4b(baskets),
    ]

    @pytest.mark.parametrize("build", BUILDS, ids=["table3", "table4", "table4b"])
    def test_a_reordered_basket_gives_the_same_table(self, fixtures, build):
        food, _ = load_basket(fixtures / "basket_food.csv")
        shuffled = list(food[2].items)
        random.Random(4).shuffle(shuffled)
        reordered = [*food[:2], dataclasses.replace(food[2], items=tuple(shuffled)), *food[3:]]
        assert render_table(*build(reordered, self.cms())) == render_table(*build(food, self.cms()))

    @pytest.mark.parametrize("build", BUILDS, ids=["table3", "table4", "table4b"])
    def test_a_basket_missing_an_item_is_refused(self, fixtures, build):
        food, _ = load_basket(fixtures / "basket_food.csv")
        other = dataclasses.replace(food[1].items[-1], item="Something else")
        swapped = dataclasses.replace(food[1], items=(*food[1].items[:-1], other))
        longer = dataclasses.replace(food[1], items=(*food[1].items, other))  # every item, and one more
        for short in (dataclasses.replace(food[1], items=food[1].items[1:]), swapped, longer):
            with pytest.raises(ShapeMismatch, match=(
                f"^basket {food[1].country}/{food[1].currency} does not carry the same items as "
                f"{food[0].country}/{food[0].currency}$"
            )):
                build([food[0], short], self.cms())

    @pytest.mark.parametrize("first", [True, False], ids=["first-basket", "later-basket"])
    def test_a_repeated_label_is_refused(self, first):
        """A row per label could show only one of a repeated label's amounts, so the basket is refused."""
        usd, eur = CurrencyCode("USD"), CurrencyCode("EUR")
        twice = Basket("A", usd, (PriceQuote("Bread", "kg", usd, D(1)), PriceQuote("Bread", "kg", usd, D(2))))
        once = Basket("B", eur, (PriceQuote("Bread", "kg", eur, D(1)), PriceQuote("Milk", "l", eur, D(2))))
        baskets = [twice, once] if first else [once, twice]
        with pytest.raises(ShapeMismatch, match=r"^basket A/USD lists \('Bread', 'kg'\) more than once$"):
            report._aligned_amounts(baskets)

    @pytest.mark.parametrize("first", [True, False], ids=["first-basket", "later-basket"])
    def test_the_refusal_names_the_repeated_label_not_the_first(self, first):
        usd, eur = CurrencyCode("USD"), CurrencyCode("EUR")
        twice = Basket("A", usd, (PriceQuote("Milk", "l", usd, D(3)), PriceQuote("Bread", "kg", usd, D(1)),
                                  PriceQuote("Bread", "kg", usd, D(2))))
        once = Basket("B", eur, (PriceQuote("Milk", "l", eur, D(3)), PriceQuote("Bread", "kg", eur, D(1)),
                                 PriceQuote("Eggs", "dozen", eur, D(2))))
        baskets = [twice, once] if first else [once, twice]
        with pytest.raises(ShapeMismatch, match=r"^basket A/USD lists \('Bread', 'kg'\) more than once$"):
            report._aligned_amounts(baskets)


class TestListings:
    def cms(self):
        return {code: manual(code, value) for code, value in TABLE3_CM.items()}

    def test_basket_rows_are_sized_and_replayable(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_commodities.csv")
        spec, rows = build_basket_listing(baskets, self.cms())
        assert not isinstance(rows, (list, tuple))
        first, second = list(rows), list(rows)
        assert len(rows) == len(first) == 24
        assert first == second
        assert [c.name for c in spec.columns] == list(first[0])
        gold = next(r for r in first if r["currency"] == "USD" and r["item"] == "Gold")
        assert gold["amount"] == "1447.00" and gold["role"] == "item"
        assert gold["monmin"] == D("1447.00") / D(TABLE3_CM["USD"])
        assert gold["cm_source"] == "manual"
        assert render_table(spec, rows) == render_table(spec, first)

    def test_percent_rows_are_sized_and_replayable(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_food.csv")
        spec, rows = build_percent_listing(baskets)
        first, second = list(rows), list(rows)
        assert len(rows) == len(first) == 6 * 28
        assert first == second
        salaries = [r for r in first if r["item"].startswith("Average Monthly Net Salary")]
        assert len(salaries) == 6 and all(r["percent"] == 100 for r in salaries)
        assert render_table(spec, rows, "text") == render_table(spec, first, "text")

    @pytest.mark.parametrize("cells", [1, 9, 40, 1024])
    def test_blocks_across_baskets_write_a_row_per_quote(self, fixtures, cells):
        """Blocks that start and end anywhere, over baskets with no quotes or only a salary, as a dict per quote."""
        food, _ = load_basket(fixtures / "basket_food.csv")
        xau, xag = CurrencyCode("XAU"), CurrencyCode("XAG")
        baskets = [*food[:2], Basket("Empty", xau, ()), Basket("Paid", xag, (), PriceQuote("Salary", "month", xag, D("12.5"))),
                   *food[2:]]
        cms = {code: manual(code, value) for _, code, value in TABLE4_COUNTRIES}
        cms.update(XAU=manual("XAU", "2"), XAG=manual("XAG", "0.5"))
        minutes, percents = [], []
        for basket in baskets:
            label = {"country": basket.country, "currency": basket.currency.code}
            for quote, role in basket.quotes():
                label.update(item=quote.item, unit=quote.unit)
                cm = cms[basket.currency.code]
                minutes.append({**label, "amount": format(quote.amount, "f"), "role": role,
                                "monmin": quote.amount / cm.value, "cm_source": cm.source.value})
                if basket.salary is not None:
                    percents.append({**label, "percent": 100 * (quote.amount / 1) / (basket.salary.amount / 1)})
        with_salary = [b for b in baskets if b.salary is not None]
        with mock.patch.object(report, "_BLOCK_CELLS", cells):
            for (spec, view), dicts in ((build_basket_listing(baskets, cms), minutes),
                                        (build_percent_listing(with_salary), percents)):
                assert len(view) == len(dicts) and list(view) == dicts
                assert [view[i] for i in range(len(view))] == dicts
                for fmt in ("csv", "text"):
                    assert render_table(spec, view, fmt) == render_table(spec, dicts, fmt)

    def test_empty_basket_list(self):
        spec, rows = build_percent_listing([])
        assert len(rows) == 0 and render_table(spec, rows) == "country,currency,item,unit,percent\n"

    def test_missing_cm_is_unknown_currency(self, fixtures):
        baskets, _ = load_basket(fixtures / "basket_commodities.csv")
        cms = self.cms()
        del cms["EUR"]
        with pytest.raises(UnknownCurrency, match="no minute value for currency EUR"):
            build_basket_listing(baskets, cms)

    @pytest.mark.parametrize("build", [build_table3, build_basket_listing])
    def test_minute_value_in_another_currency(self, fixtures, build):
        baskets, _ = load_basket(fixtures / "basket_commodities.csv")
        cms = {**self.cms(), "EUR": manual("GBP", "0.014648")}
        with pytest.raises(CurrencyMismatch, match="^price in EUR cannot use a GBP minute value$"):
            build(baskets, cms)

    def test_zero_salary(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("country,currency,item,unit,amount,role\n"
                        "A,USD,Bread,kg,1,item\nA,USD,Salary,month,0.0,salary\n", encoding="utf-8")
        baskets, _ = load_basket(path)
        for build in (build_percent_listing, build_table4b):
            with pytest.raises(NonPositiveInput, match="^salary must be > 0, got 0.0$"):
                build(baskets)


class TestTable5AndPlotData:
    def test_billions_and_events(self, fixtures):
        series, _ = load_series(fixtures / "series_us.csv")
        spec, rows = build_table5(series)
        assert rows[0]["year"] == 1960
        assert rows[0]["m1_billions"] == D(140)
        assert rows[0]["events"] == "Recession."
        text = render_table(spec, rows)
        assert text.splitlines()[1].startswith("1960,140,24529,542,")

    def test_plot_data_has_57_rows(self, fixtures):
        series, _ = load_series(fixtures / "series_us.csv")
        text = emit_plot_data(series)
        lines = text.splitlines()
        assert lines[0] == "year,m1_currency,m1_monmin,gdp_currency"
        assert len(lines) == 1 + 57

    def test_plot_data_single_year(self, fixtures):
        series, _ = load_series(fixtures / "series_us.csv")
        from monmin import AggregateSeries

        single = AggregateSeries(series.currency, series.years[:1], series.std)
        assert len(emit_plot_data(single).splitlines()) == 2

    def test_extrema_markers(self, fixtures):
        series, _ = load_series(fixtures / "series_us.csv")
        extrema = detect_extrema(series_in_monmin(series))
        lines = emit_plot_data(series, extrema).splitlines()
        assert lines[0].endswith(",extremum")
        row_2008 = next(line for line in lines if line.startswith("2008,"))
        assert row_2008.endswith(",trough")
        row_1987 = next(line for line in lines if line.startswith("1987,"))
        assert row_1987.endswith(",peak")


    def test_minutes_must_hold_every_series_year_in_order(self, fixtures):
        series, _ = load_series(fixtures / "series_us.csv")
        minutes = series_in_monmin(series)
        shifted = [(year + 1, value) for year, value in minutes]
        for bad, message in (
            (minutes[:3], "minutes hold 3 years, the series 57"),
            (minutes + minutes[:1], "minutes hold 58 years, the series 57"),
            (shifted, "minutes row 0 is for 1961, the series year is 1960"),
        ):
            with pytest.raises(ShapeMismatch, match=f"^{message}$"):
                build_table5(series, bad)
            with pytest.raises(ShapeMismatch, match=f"^{message}$"):
                emit_plot_data(series, None, bad)
        assert emit_plot_data(series, None, minutes) == emit_plot_data(series)

    def test_minutes_of_other_number_types_print_as_each_cell_alone(self):
        """Whole-number minutes among decimals print as they would alone; a float is refused after the rows before it."""
        years = [AggregateYear(2000 + i, D(f"{i + 1}E+{20 + 3 * i}"), D("5E+3"), 10) for i in range(300)]
        series = AggregateSeries(CurrencyCode("USD"), years)
        minutes = series_in_monmin(series)
        mixed = [(year, int(value) if i % 3 == 0 else value) for i, (year, value) in enumerate(minutes)]
        assert emit_plot_data(series, None, mixed) == emit_plot_data(series)
        floated = [(year, float(value) if i == 200 else value) for i, (year, value) in enumerate(minutes)]
        sink = io.StringIO()
        with pytest.raises(TypeError):
            report.write_plot_data(series, sink, None, floated)
        assert sink.getvalue() == "".join(emit_plot_data(series).splitlines(keepends=True)[:201])

    def test_plot_data_writes_like_the_per_row_reference(self, fixtures):
        series, _ = load_series(fixtures / "series_us.csv")
        years = [
            AggregateYear(1000 + i, D(f"{i * 7919 % 1000}E+9"), D(f"{i + 1}.5E+12"), 10**6 + i)
            for i in range(3000)
        ]
        long = AggregateSeries(CurrencyCode("USD"), years)
        for s in (series, long):
            extrema = detect_extrema(series_in_monmin(s))
            assert emit_plot_data(s, extrema) == reference_plot_data(s, extrema)
            assert emit_plot_data(s) == reference_plot_data(s)

    def test_markers_on_a_long_series_match_a_brute_force_scan(self):
        rng = random.Random(2019)
        years = [
            AggregateYear(1000 + i, D(rng.randint(1, 9)) * 10**9, D("500e9"), 1_000_000)
            for i in range(2000)
        ]
        series = AggregateSeries(CurrencyCode("USD"), years)
        minutes = series_in_monmin(series)
        text = emit_plot_data(series, detect_extrema(minutes), minutes)
        assert text == emit_plot_data(series, detect_extrema(minutes))
        peaks, troughs = brute_force_extrema(minutes)
        assert len(peaks) > 300 and len(troughs) > 300
        expected = {**dict.fromkeys(peaks, "peak"), **dict.fromkeys(troughs, "trough")}
        rows = text.splitlines()[1:]
        assert len(rows) == 2000
        for row in rows:
            year, marker = row.split(",")[0], row.split(",")[-1]
            assert marker == expected.get(int(year), ""), year


class TestRowsMadeOnRead:
    """Tables 3, 4, 4b and 5 make each row when it is read, like table 1 and the listings."""

    def tables(self, fixtures):
        commodities, _ = load_basket(fixtures / "basket_commodities.csv")
        food, _ = load_basket(fixtures / "basket_food.csv")
        series, _ = load_series(fixtures / "series_us.csv")
        table3_cms = {code: manual(code, value) for code, value in TABLE3_CM.items()}
        table4_cms = {code: manual(code, value) for _, code, value in TABLE4_COUNTRIES}
        return {
            "3": (build_table3(commodities, table3_cms), 6),
            "4": (build_table4(food, table4_cms), 28),
            "4b": (build_table4b(food), 28),
            "5": (build_table5(series), 57),
        }

    @pytest.mark.parametrize("table", ["3", "4", "4b", "5"])
    def test_sized_replayable_and_indexable(self, fixtures, table):
        (spec, rows), count = self.tables(fixtures)[table]
        assert not isinstance(rows, (list, tuple))
        first, second = list(rows), list(rows)
        assert len(rows) == len(first) == count
        assert first == second
        assert [rows[i] for i in range(count)] == first
        assert rows[-1] == first[-1] and rows[-count] == first[0]
        assert rows[1:4] == first[1:4] and rows[::-5] == first[::-5]
        for index in (count, -count - 1):
            with pytest.raises(IndexError):
                rows[index]
        assert render_table(spec, rows) == render_table(spec, first)

    def test_listings_and_table1_index_like_their_rows(self, fixtures):
        snapshots, _ = load_economies(fixtures / "economies_table1.csv")
        food, _ = load_basket(fixtures / "basket_food.csv")
        cms = {code: manual(code, value) for _, code, value in TABLE4_COUNTRIES}
        for _, rows in (build_table1(snapshots), build_basket_listing(food, cms),
                        build_percent_listing(food)):
            every = list(rows)
            assert [rows[i] for i in range(len(rows))] == every
            assert rows[-1] == every[-1] and rows[-len(rows)] == every[0]
            assert rows[::-1] == every[::-1] and rows[1::7] == every[1::7]

    def test_checks_run_before_the_builder_returns(self, fixtures):
        food, _ = load_basket(fixtures / "basket_food.csv")
        cms = {code: manual(code, value) for _, code, value in TABLE4_COUNTRIES}
        short = [food[0], dataclasses.replace(food[1], items=food[1].items[:-1])]
        for build in (lambda b: build_table3(b, cms), lambda b: build_table4(b, cms), build_table4b):
            with pytest.raises(ShapeMismatch, match="does not carry the same items"):
                build(short)
        del cms["JPY"]
        with pytest.raises(UnknownCurrency, match="JPY"):
            build_table4(food, cms)

    def test_table4_written_to_a_file_holds_no_table(self, tmp_path):
        """100 baskets of 200 items: 20k minute prices, about 3 MB if held as Decimals in dicts."""
        baskets = []
        for k in range(100):
            code = CurrencyCode(f"C{k:03d}")
            items = tuple(
                PriceQuote(f"Item {m}", "kg", code, D(f"{1000 + m * 7 + k}.25")) for m in range(200)
            )
            salary = PriceQuote("Salary", "month", code, D(250_000 + k))
            baskets.append(Basket(f"Country {k}", code, items, salary))
        cms = {b.currency.code: manual(b.currency.code, f"0.{k + 1:03d}7") for k, b in enumerate(baskets)}
        target = tmp_path / "table4.csv"
        tracemalloc.start()
        try:
            spec, rows = build_table4(baskets, cms)
            with open(target, "w", encoding="utf-8", newline="") as sink:
                write_table(spec, rows, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 201
        assert target.read_text(encoding="utf-8").count("\n") == 202
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"

    def test_table5_written_to_a_file_holds_no_table(self, tmp_path):
        """20k years: about 12 MB if held as dicts of Decimals."""
        years = [
            AggregateYear(1000 + i, D(10**12 + i * 7919), D(10**13 + i), 300_000_000 + i, "")
            for i in range(20_000)
        ]
        series = AggregateSeries(CurrencyCode("USD"), years)
        minutes = series_in_monmin(series)
        target = tmp_path / "table5.csv"
        tracemalloc.start()
        try:
            spec, rows = build_table5(series, minutes)
            with open(target, "w", encoding="utf-8", newline="") as sink:
                write_table(spec, rows, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 20_000
        assert target.read_text(encoding="utf-8").count("\n") == 20_001
        assert peak < 2**20, f"traced peak {peak / 2**20:.1f} MB"


class TestViewsRenderLikeTheirRows:
    """A view hands the writer its values in column order; its rows as dicts render the same."""

    def views(self, fixtures):
        snapshots, _ = load_economies(fixtures / "economies_table1.csv")
        commodities, _ = load_basket(fixtures / "basket_commodities.csv")
        food, _ = load_basket(fixtures / "basket_food.csv")
        series, _ = load_series(fixtures / "series_us.csv")
        table3_cms = {code: manual(code, value) for code, value in TABLE3_CM.items()}
        table4_cms = {code: manual(code, value) for _, code, value in TABLE4_COUNTRIES}
        return {
            "1": build_table1(snapshots),
            "3": build_table3(commodities, table3_cms),
            "4": build_table4(food, table4_cms),
            "4b": build_table4b(food),
            "5": build_table5(series),
            "basket": build_basket_listing(food, table4_cms),
            "percent": build_percent_listing(food),
        }

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    @pytest.mark.parametrize("table", ["1", "3", "4", "4b", "5", "basket", "percent"])
    def test_view_and_dicts_render_alike(self, fixtures, table, fmt):
        spec, view = self.views(fixtures)[table]
        dicts = [dict(row) for row in view]
        assert [list(row) for row in dicts] == [[c.name for c in spec.columns]] * len(dicts)
        assert render_table(spec, view, fmt) == render_table(spec, dicts, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_view_with_other_names_is_a_shape_mismatch(self, fixtures, fmt):
        spec, view = self.views(fixtures)["1"]
        renamed = TableSpec(spec.table_id, (ColumnRule("nation"), *spec.columns[1:]))
        with pytest.raises(ShapeMismatch, match=r"table 1 row 0: expected columns \['nation'"):
            render_table(renamed, view, fmt)
        shorter = TableSpec(spec.table_id, spec.columns[:-1])
        with pytest.raises(ShapeMismatch, match="table 1 row 0"):
            render_table(shorter, view, fmt)


class TestSpecValidation:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSpec(TableId.T1, (ColumnRule("a"), ColumnRule("a")))

    def test_exclusive_rounding_rule(self):
        with pytest.raises(ValueError):
            ColumnRule("x", decimals=2, sig_figures=3)

    @pytest.mark.parametrize(
        "rounding,message",
        [({"decimals": -1}, "decimals must be >= 0"), ({"sig_figures": 0}, "sig_figures must be >= 1")],
        ids=["negative-decimals", "zero-sig-figures"],
    )
    def test_rounding_out_of_range(self, rounding, message):
        with pytest.raises(ValueError, match=f"^column x: {message}$"):
            ColumnRule("x", **rounding)
