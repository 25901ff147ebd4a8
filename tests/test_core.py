import copy
import dataclasses
import pickle
from decimal import Decimal as D

import pytest

from monmin import (
    CmSource,
    CurrencyCode,
    CurrencyMismatch,
    EconomySnapshot,
    ExchangeRate,
    ItemMismatch,
    ItemMismatchWarning,
    MonMinPrice,
    MonMinValue,
    NonPositiveInput,
    PriceQuote,
    RateTable,
    TimeStandard,
    compute_cm,
    cross_cm,
    from_monmin,
    invert_cm,
    parity_rate,
    percent_of_salary,
    to_monmin,
)
from monmin.errors import DuplicatePair
from monmin.series import AggregateSeries, AggregateYear, ExtremaReport

USD = CurrencyCode("USD")
EUR = CurrencyCode("EUR")
CZK = CurrencyCode("CZK")
STD = TimeStandard()


def snapshot(gdp, population, currency=USD, country="Testland"):
    return EconomySnapshot(country, currency, gdp, population, "2019-01-01")


class TestCurrencyCode:
    def test_valid_codes(self):
        assert CurrencyCode("USD").code == "USD"
        assert CurrencyCode("USDT").code == "USDT"
        assert str(CurrencyCode("CZK", "Kč")) == "CZK"

    @pytest.mark.parametrize("bad", ["", "US", "usd", "USDOL", "U D", 123])
    def test_invalid_codes(self, bad):
        with pytest.raises(ValueError, match=f"^currency code must be 3-4 uppercase characters, got {bad!r}$"):
            CurrencyCode(bad)

    def test_symbol_is_cosmetic(self):
        assert CurrencyCode("USD", "$") == CurrencyCode("USD")
        assert hash(CurrencyCode("USD", "$")) == hash(CurrencyCode("USD"))


_YEAR = AggregateYear(1960, D("140e9"), D("542e9"), 180671000, "Recession.")
VALUE_TYPES = [
    CurrencyCode("CZK", "Kč"),
    TimeStandard(D("525948.766")),
    EconomySnapshot("Czechia", CZK, D("5.79e12"), 10649800, "2019-12-31"),
    MonMinValue(USD, D("0.1210095"), CmSource.COMPUTED_FROM_GDP),
    ExchangeRate(USD, EUR, D("0.8930"), "2019-12-31"),
    PriceQuote("Gold", "1 oz", USD, D("1447.00")),
    MonMinPrice("Gold", USD, D("11958.58")),
    _YEAR,
    AggregateSeries(USD, (_YEAR,), TimeStandard()),
    ExtremaReport((1987, 1994), (2008,)),
]


def _field_values(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


@pytest.mark.parametrize("value", VALUE_TYPES, ids=lambda v: type(v).__name__)
class TestSlottedValueTypes:
    def test_frozen(self, value):
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))

    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize(
        "clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips_keep_every_field(self, value, clone):
        twin = clone(value)
        assert twin == value and hash(twin) == hash(value)
        assert _field_values(twin) == _field_values(value)


class TestTimeStandard:
    def test_default_is_525600(self):
        assert STD.minutes_per_year == D(525600)

    def test_astronomical_alternative(self):
        assert TimeStandard(D("525948.766")).minutes_per_year == D("525948.766")

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveInput):
            TimeStandard(0)


class TestComputeCm:
    def test_us_2019(self):
        cm = compute_cm(snapshot(D("20891400000000"), 328467812), STD)
        assert abs(cm.value - D("0.1210095")) <= D("5e-8")
        assert cm.currency == USD
        assert cm.source is CmSource.COMPUTED_FROM_GDP

    def test_czech_2019(self):
        cm = compute_cm(snapshot(D("5328738000000"), 10649800, CZK), STD)
        assert abs(cm.value - D("0.9519794")) <= D("5e-8")

    def test_japan_2019(self):
        cm = compute_cm(snapshot(D("549700000000000"), 126200000, CurrencyCode("JPY")), STD)
        assert abs(cm.value - D("8.2872612")) <= D("5e-8")

    def test_units_cancel_to_one(self):
        pop = 123456
        cm = compute_cm(snapshot(D(525600) * pop, pop), STD)
        assert cm.value == 1

    def test_rejects_corrupt_snapshot_values(self):
        with pytest.raises(NonPositiveInput):
            snapshot(D(0), 1000)
        with pytest.raises(NonPositiveInput):
            snapshot(D(1000), 0)

    def test_gdp_per_capita(self):
        assert snapshot(D(1000), 4).gdp_per_capita() == D(250)

    @pytest.mark.parametrize("gdp,population", [(D(0), 10), (D(-5), 10), (D(1000), 0), (D(1000), -3)])
    def test_snapshot_rejects_what_compute_cm_would_divide_by(self, gdp, population):
        # compute_cm does not re-check gdp and population: no snapshot can hold these
        with pytest.raises(NonPositiveInput):
            EconomySnapshot("Testland", USD, gdp, population, "2019-01-01")


class TestCrossCm:
    def test_usd_to_eur(self):
        usd = MonMinValue(USD, D("0.11918"))
        eur = cross_cm(usd, ExchangeRate(USD, EUR, D("1.1325")))
        assert abs(eur.value - D("0.134971")) <= D("5e-6")
        assert eur.currency == EUR
        assert eur.source is CmSource.CROSS_RATE

    def test_identity_rate(self):
        usd = MonMinValue(USD, D("0.5"))
        out = cross_cm(usd, ExchangeRate(USD, EUR, D(1)))
        assert out.value == usd.value

    def test_direct_multiplication(self):
        usd = MonMinValue(USD, D("0.11918"))
        out = cross_cm(usd, ExchangeRate(USD, CurrencyCode("XTC"), D(2)))
        assert out.value == D("0.23836")

    def test_base_must_match(self):
        usd = MonMinValue(USD, D("0.11918"))
        with pytest.raises(CurrencyMismatch):
            cross_cm(usd, ExchangeRate(EUR, CZK, D(25)))


class TestInvertCm:
    def test_dollar_2019(self):
        assert abs(invert_cm(MonMinValue(USD, D("0.11918"))) - D("8.39")) <= D("0.005")

    def test_one(self):
        assert invert_cm(MonMinValue(USD, D(1))) == 1

    def test_yuan_2019(self):
        assert abs(invert_cm(MonMinValue(CurrencyCode("CNY"), D("0.00023033"))) - D("4341.59")) <= D("0.05")

    @pytest.mark.parametrize("value", [D(0), D("-0"), D("-0.5")])
    def test_minute_value_rejects_what_invert_cm_would_divide_by(self, value):
        # invert_cm does not re-check the value: no MonMinValue can hold these
        with pytest.raises(NonPositiveInput):
            MonMinValue(USD, value)


class TestToFromMonMin:
    GOLD_USD = PriceQuote("Gold", "1 oz", USD, D("1447.00"))
    CM_USD = MonMinValue(USD, D("0.121001"))

    def test_gold_in_usd_context(self):
        mp = to_monmin(self.GOLD_USD, self.CM_USD)
        assert abs(mp.monmin.quantize(D(1)) - 11958) <= 1
        assert mp.currency_context == USD

    def test_gold_in_czk_context(self):
        mp = to_monmin(PriceQuote("Gold", "1 oz", CZK, D("32940.96")), MonMinValue(CZK, D("0.951979")))
        assert abs(mp.monmin.quantize(D(1)) - 34603) <= 1

    def test_zero_price(self):
        assert to_monmin(PriceQuote("x", "", USD, D(0)), self.CM_USD).monmin == 0

    def test_currency_mismatch(self):
        with pytest.raises(CurrencyMismatch):
            to_monmin(PriceQuote("Gold", "1 oz", CZK, D(1)), self.CM_USD)

    def test_round_trip(self):
        mp = to_monmin(self.GOLD_USD, self.CM_USD)
        back = from_monmin(mp, self.CM_USD)
        assert abs(back.amount - self.GOLD_USD.amount) / self.GOLD_USD.amount <= D("1e-12")

    def test_from_monmin_multiplies(self):
        out = from_monmin(MonMinPrice("x", USD, D(10000)), self.CM_USD)
        assert out.amount == D("1210.01")

    def test_from_monmin_zero(self):
        assert from_monmin(MonMinPrice("x", USD, D(0)), self.CM_USD).amount == 0

    def test_from_monmin_context_mismatch(self):
        with pytest.raises(CurrencyMismatch):
            from_monmin(MonMinPrice("x", CZK, D(1)), self.CM_USD)

    @pytest.mark.parametrize("value", [D(0), D("-1"), D("-1e-30")])
    def test_minute_value_rejects_what_to_monmin_would_divide_by(self, value):
        # to_monmin does not re-check the value: no MonMinValue can hold these
        with pytest.raises(NonPositiveInput):
            MonMinValue(USD, value, CmSource.MANUAL)


class TestPriceQuote:
    def test_decimal_amount_is_kept_as_is(self):
        amount = D("1447.00")
        assert PriceQuote("Gold", "1 oz", USD, amount).amount is amount

    @pytest.mark.parametrize("raw,expected", [(7, "7"), ("2.50", "2.50"), (0.1, "0.1")])
    def test_other_amounts_are_coerced(self, raw, expected):
        amount = PriceQuote("x", "", USD, raw).amount
        assert type(amount) is D and str(amount) == expected

    @pytest.mark.parametrize("raw", [D("-0.01"), -1, "-2"])
    def test_negative_amounts_rejected(self, raw):
        with pytest.raises(NonPositiveInput):
            PriceQuote("x", "", USD, raw)


class TestParityRate:
    def gold(self, context, value):
        return MonMinPrice("Gold", context, D(value))

    def test_gold_czk_per_usd(self):
        rate = ExchangeRate(USD, CZK, D("22.765"))
        parity = parity_rate(rate, self.gold(USD, 11958), self.gold(CZK, 34603))
        assert abs(parity - D("7.867")) <= D("0.005")

    def test_gold_czk_per_eur(self):
        rate = ExchangeRate(EUR, CZK, D("25.549"))
        parity = parity_rate(rate, self.gold(USD, 11958), self.gold(CZK, 16589))
        assert abs(parity - D("18.417")) <= D("0.005")

    def test_mcmeal_eur_per_usd(self):
        rate = ExchangeRate(USD, EUR, D("0.88"))
        parity = parity_rate(
            rate, MonMinPrice("McMeal", USD, D(58)), MonMinPrice("McMeal", EUR, D(96))
        )
        assert abs(parity - D("0.53")) <= D("0.005")

    def test_equal_prices_leave_rate_unchanged(self):
        rate = ExchangeRate(USD, CZK, D("22.765"))
        assert parity_rate(rate, self.gold(USD, 100), self.gold(CZK, 100)) == rate.rate

    def test_zero_local_price(self):
        rate = ExchangeRate(USD, CZK, D(1))
        with pytest.raises(NonPositiveInput):
            parity_rate(rate, self.gold(USD, 100), self.gold(CZK, 0))

    def test_item_mismatch_warns_by_default(self):
        rate = ExchangeRate(USD, CZK, D(2))
        with pytest.warns(ItemMismatchWarning):
            value = parity_rate(rate, MonMinPrice("Gold", USD, D(10)), MonMinPrice("Oil", CZK, D(5)))
        assert value == 4

    def test_item_mismatch_strict_raises(self):
        rate = ExchangeRate(USD, CZK, D(2))
        with pytest.raises(ItemMismatch):
            parity_rate(
                rate, MonMinPrice("Gold", USD, D(10)), MonMinPrice("Oil", CZK, D(5)),
                strict_items=True,
            )


class TestPercentOfSalary:
    SALARY = MonMinPrice("salary", USD, D(25867))

    def test_mcmeal_us(self):
        value = percent_of_salary(MonMinPrice("McMeal", USD, D(58)), self.SALARY)
        assert abs(value - D("0.22")) <= D("0.005")

    def test_meal_us(self):
        value = percent_of_salary(MonMinPrice("Meal", USD, D(123)), self.SALARY)
        assert abs(value - D("0.48")) <= D("0.005")

    def test_salary_is_100(self):
        assert percent_of_salary(self.SALARY, self.SALARY) == 100

    def test_zero_salary(self):
        with pytest.raises(NonPositiveInput):
            percent_of_salary(MonMinPrice("x", USD, D(1)), MonMinPrice("salary", USD, D(0)))

    def test_context_mismatch(self):
        with pytest.raises(CurrencyMismatch):
            percent_of_salary(MonMinPrice("x", CZK, D(1)), self.SALARY)


class TestRateTable:
    def test_lookup_and_order(self):
        r1 = ExchangeRate(USD, EUR, D(2))
        r2 = ExchangeRate(USD, CZK, D(20))
        table = RateTable([r1, r2])
        assert table.get("USD", "EUR") is r1
        assert table.get(USD, CZK) is r2
        assert table.get("EUR", "USD") is None
        assert list(table) == [r1, r2]
        assert ("USD", "EUR") in table and ("CZK", "USD") not in table

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DuplicatePair):
            RateTable([ExchangeRate(USD, EUR, D(2)), ExchangeRate(USD, EUR, D(3))])

    def test_reciprocal_consistency(self):
        clean = RateTable([ExchangeRate(USD, EUR, D(2)), ExchangeRate(EUR, USD, D("0.5"))])
        assert clean.reciprocal_mismatches() == []
        dirty = RateTable([ExchangeRate(USD, EUR, D(2)), ExchangeRate(EUR, USD, D("0.4"))])
        mismatches = dirty.reciprocal_mismatches()
        assert len(mismatches) == 1
        assert mismatches[0][2] == D("0.8")

    def test_a_product_off_by_exactly_the_tolerance_is_no_mismatch(self):
        edge = RateTable([ExchangeRate(USD, EUR, D("2.000002")), ExchangeRate(EUR, USD, D("0.5"))])
        assert edge.reciprocal_mismatches() == []
        assert len(edge.reciprocal_mismatches(rel_tol=D("0.999999e-6"))) == 1

    def test_equal_only_to_a_table_of_the_same_rates(self):
        rate = ExchangeRate(USD, EUR, D(2))
        assert RateTable([rate]) == RateTable([rate]) and RateTable([rate]) != RateTable()
        assert (RateTable() == 1) is False and RateTable().__eq__(1) is NotImplemented
        assert repr(RateTable()) == "RateTable([])"
        assert repr(RateTable([rate])) == f"RateTable([{rate!r}])"

    def test_rate_invariants(self):
        with pytest.raises(NonPositiveInput):
            ExchangeRate(USD, EUR, D(0))
        with pytest.raises(ValueError):
            ExchangeRate(USD, USD, D(1))


class TestMonMinValueInvariants:
    def test_positive_only(self):
        with pytest.raises(NonPositiveInput):
            MonMinValue(USD, D(0))
        with pytest.raises(NonPositiveInput):
            MonMinValue(USD, D(-1))

    def test_negative_amounts_rejected(self):
        with pytest.raises(NonPositiveInput):
            PriceQuote("x", "", USD, D(-1))
        with pytest.raises(NonPositiveInput):
            MonMinPrice("x", USD, D("-0.5"))
