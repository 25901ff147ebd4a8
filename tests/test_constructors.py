"""The contract of the four types built once per row.

``MonMinValue``, ``PriceQuote`` and ``AggregateYear`` validate in a
``__post_init__`` after the dataclass-generated ``__init__``.  Only
``EconomySnapshot`` keeps a hand-written ``__init__``, which checks its
input once and is cheaper per value: a dirty economies file is loaded row
by row, one snapshot per row.  These tests pin what callers see of all
four: the signature, keyword and positional construction, ``fields()``,
``replace``, coercion, and the exact text of every rejection.
``FrozenInstanceError``, the missing ``__dict__`` and the pickle, copy and
deepcopy round trips are checked for every value type, these four
included, in ``test_core.TestSlottedValueTypes``.
"""
import dataclasses
import inspect
import re
from dataclasses import MISSING
from datetime import date
from decimal import Decimal as D, InvalidOperation

import pytest
from hypothesis import example, given, strategies as st

from monmin import (
    CmSource, CurrencyCode, EconomySnapshot, ExchangeRate, MonMinPrice, MonMinValue, NonPositiveInput,
    PriceQuote, TimeStandard,
)
from monmin.core import _iso_date
from monmin.series import AggregateYear

USD = CurrencyCode("USD")

# type, positional arguments of a valid instance, the signature's parameters
# and (field name, default) pairs as dataclass generated them
CONTRACTS = [
    (
        EconomySnapshot,
        ("Czechia", CurrencyCode("CZK"), D("5.79e12"), 10649800, date(2019, 12, 31)),
        "(country: 'str', currency: 'CurrencyCode', gdp: 'Decimal', population: 'int', "
        "as_of: 'date')",
        [("country", MISSING), ("currency", MISSING), ("gdp", MISSING),
         ("population", MISSING), ("as_of", MISSING)],
    ),
    (
        MonMinValue,
        (USD, D("0.1210095"), CmSource.COMPUTED_FROM_GDP),
        "(currency: 'CurrencyCode', value: 'Decimal', source: 'CmSource' = <CmSource.MANUAL: 'manual'>)",
        [("currency", MISSING), ("value", MISSING), ("source", CmSource.MANUAL)],
    ),
    (
        PriceQuote,
        ("Gold", "1 oz", USD, D("1447.00")),
        "(item: 'str', unit: 'str', currency: 'CurrencyCode', amount: 'Decimal')",
        [("item", MISSING), ("unit", MISSING), ("currency", MISSING), ("amount", MISSING)],
    ),
    (
        AggregateYear,
        (1960, D("140e9"), D("542e9"), 180671000, "Recession."),
        "(year: 'int', m1: 'Decimal', gdp: 'Decimal', population: 'int', events: 'str' = '')",
        [("year", MISSING), ("m1", MISSING), ("gdp", MISSING), ("population", MISSING),
         ("events", "")],
    ),
]


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls,args,signature,fields", CONTRACTS, ids=[c[0].__name__ for c in CONTRACTS])
class TestRowTypeContract:
    def test_signature_is_the_generated_one(self, cls, args, signature, fields):
        params = inspect.signature(cls).parameters.values()
        assert "(" + ", ".join(str(p) for p in params) + ")" == signature

    def test_fields_and_defaults_unchanged(self, cls, args, signature, fields):
        assert [(f.name, f.default) for f in dataclasses.fields(cls)] == fields

    def test_positional_and_keyword_construction_agree(self, cls, args, signature, fields):
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(_names(cls), args)))
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert repr(by_position) == repr(by_keyword)
        assert [getattr(by_position, name) for name in _names(cls)] == list(args)

    def test_defaults_apply_when_left_out(self, cls, args, signature, fields):
        required = [arg for arg, (_, default) in zip(args, fields) if default is MISSING]
        made = cls(*required)
        for name, default in fields:
            if default is not MISSING:
                assert getattr(made, name) == default

    def test_replace_builds_through_the_constructor(self, cls, args, signature, fields):
        value = cls(*args)
        name = _names(cls)[0]
        changed = dataclasses.replace(value, **{name: args[0]})
        assert changed == value and changed is not value
        numeric = next(n for n, a in zip(_names(cls), args) if isinstance(a, D))
        with pytest.raises(NonPositiveInput):
            dataclasses.replace(value, **{numeric: D(-1)})

    def test_an_exact_decimal_is_kept_as_is(self, cls, args, signature, fields):
        value = cls(*args)
        for name, arg in zip(_names(cls), args):
            if isinstance(arg, D):
                assert getattr(value, name) is arg


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda raw: EconomySnapshot("X", USD, raw, 10, "2019-01-01"), "gdp"),
        (lambda raw: MonMinValue(USD, raw), "value"),
        (lambda raw: PriceQuote("x", "", USD, raw), "amount"),
        (lambda raw: AggregateYear(1960, raw, D(1), 10), "m1"),
        (lambda raw: AggregateYear(1960, D(0), raw, 10), "gdp"),
    ],
    ids=["snapshot-gdp", "minute-value", "quote-amount", "year-m1", "year-gdp"],
)
@pytest.mark.parametrize("raw,text", [(7, "7"), ("2.50", "2.50"), (0.1, "0.1"), (1e21, "1E+21")],
                         ids=["int", "str", "float", "big-float"])
def test_numbers_are_coerced_as_before(make, field, raw, text):
    value = getattr(make(raw), field)
    assert type(value) is D and str(value) == text


def test_iso_dates_are_parsed_and_dates_kept():
    assert EconomySnapshot("X", USD, D(1), 1, "2019-12-31").as_of == date(2019, 12, 31)
    day = date(2019, 1, 1)
    assert EconomySnapshot("X", USD, D(1), 1, day).as_of is day


# Ten characters with "-" eighth whose fifth is not "-" or that are not all ASCII.
SHAPES = st.builds(
    "{}-{}".format,
    st.text("0123456789-WT+:Z ٢２", min_size=7, max_size=7), st.text("0123456789٠", min_size=2, max_size=2),
).filter(lambda text: text[4] != "-" or not text.isascii())


@example("2019011-01")
@example("2019W01-01")
@example("٢٠١٩-٠١-٠١")
@example("2019-0١-01")
@given(text=SHAPES)
def test_fromisoformat_refuses_what_iso_date_checks_first_with_the_same_text(text):
    """``_iso_date``'s checks of the fifth character and of ASCII refuse no text that ``date.fromisoformat`` takes.

    So dropping either check changes no outcome on the Python that runs
    this; each version CI runs checks it again.
    """
    message = re.escape(f"Invalid isoformat string: {text!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        date.fromisoformat(text)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _iso_date(text)


# every rejection, with the exact type and text the __post_init__ versions gave
REJECTIONS = [
    (lambda: EconomySnapshot("X", USD, D(0), 10, "2019-01-01"),
     NonPositiveInput, "X: gdp must be > 0, got 0"),
    (lambda: EconomySnapshot("X", USD, "-1.5", 10, "2019-01-01"),
     NonPositiveInput, "X: gdp must be > 0, got -1.5"),
    (lambda: EconomySnapshot("X", USD, D(1), 0, "2019-01-01"),
     NonPositiveInput, "X: population must be a positive integer, got 0"),
    (lambda: EconomySnapshot("X", USD, D(1), 1.5, "2019-01-01"),
     NonPositiveInput, "X: population must be a positive integer, got 1.5"),
    (lambda: EconomySnapshot("X", USD, D(1), "10", "2019-01-01"),
     NonPositiveInput, "X: population must be a positive integer, got '10'"),
    (lambda: EconomySnapshot("X", USD, D(1), 10, "2019-13-01"),
     ValueError, "month must be in 1..12"),
    (lambda: EconomySnapshot("X", USD, D(1), 10, "31/12/2019"),
     ValueError, "Invalid isoformat string: '31/12/2019'"),
    (lambda: EconomySnapshot("X", USD, [1], 10, "2019-01-01"),
     TypeError, "cannot convert list to Decimal"),
    (lambda: MonMinValue(USD, D(0)),
     NonPositiveInput, "minute value must be > 0, got 0 USD"),
    (lambda: MonMinValue(USD, "-0.5", CmSource.CROSS_RATE),
     NonPositiveInput, "minute value must be > 0, got -0.5 USD"),
    (lambda: MonMinValue(USD, None),
     TypeError, "cannot convert NoneType to Decimal"),
    (lambda: MonMinValue(None, D("0.5")),
     TypeError, "currency must be a CurrencyCode, got None"),
    (lambda: MonMinValue("USD", D("0.5")),
     TypeError, "currency must be a CurrencyCode, got 'USD'"),
    (lambda: PriceQuote("x", "", None, D(3)),
     TypeError, "currency must be a CurrencyCode, got None"),
    (lambda: PriceQuote("x", "", "USD", D(3)),
     TypeError, "currency must be a CurrencyCode, got 'USD'"),
    (lambda: PriceQuote("Gold", "1 oz", USD, D("-0.01")),
     NonPositiveInput, "Gold: amount must be >= 0, got -0.01"),
    (lambda: PriceQuote("Gold", "1 oz", USD, -2),
     NonPositiveInput, "Gold: amount must be >= 0, got -2"),
    (lambda: PriceQuote("Gold", "1 oz", USD, (1,)),
     TypeError, "cannot convert tuple to Decimal"),
    (lambda: AggregateYear(1960, D(-1), D(1), 10),
     NonPositiveInput, "1960: m1 must be >= 0, got -1"),
    (lambda: AggregateYear(1960, D(1), D(0), 10),
     NonPositiveInput, "1960: gdp must be > 0, got 0"),
    (lambda: AggregateYear(1960, D(1), D(1), 0),
     NonPositiveInput, "1960: population must be > 0, got 0"),
    (lambda: AggregateYear(1960, D(1), D(1), None),
     TypeError, "'<=' not supported between instances of 'NoneType' and 'int'"),
    (lambda: AggregateYear(1960, "x", D(1), 10),
     InvalidOperation, "[<class 'decimal.ConversionSyntax'>]"),
]


@pytest.mark.parametrize("make,error,message", REJECTIONS, ids=[m for _, _, m in REJECTIONS])
def test_rejections_keep_their_type_and_text(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


# a value with two faults is refused for the earlier field: each number is checked finite, then for its sign,
# before the next field is looked at
TWO_FAULTS = [
    (lambda: AggregateYear(1960, D(-1), D("NaN"), 10), "1960: m1 must be >= 0, got -1"),
    (lambda: EconomySnapshot("X", USD, D(0), 10, "2019-13-01"), "X: gdp must be > 0, got 0"),
    (lambda: ExchangeRate(USD, CurrencyCode("EUR"), D(0), "2019-13-01"), "rate USD->EUR must be > 0, got 0"),
]


@pytest.mark.parametrize("make,message", TWO_FAULTS, ids=["AggregateYear", "EconomySnapshot", "ExchangeRate"])
def test_a_number_is_checked_in_full_before_the_next_field(make, message):
    with pytest.raises(NonPositiveInput) as caught:
        make()
    assert str(caught.value) == message


NON_FINITE = ["Infinity", "-Infinity", "NaN", "sNaN"]


@pytest.mark.parametrize("text", NON_FINITE)
@pytest.mark.parametrize(
    "make,message",
    [
        (lambda v: EconomySnapshot("X", USD, v, 10, "2019-01-01"), "X: gdp must be finite, got {}"),
        (lambda v: MonMinValue(USD, v), "USD: minute value must be finite, got {}"),
        (lambda v: PriceQuote("Gold", "1 oz", USD, v), "Gold: amount must be finite, got {}"),
        (lambda v: AggregateYear(1960, v, D(1), 10), "1960: m1 must be finite, got {}"),
        (lambda v: AggregateYear(1960, D(1), v, 10), "1960: gdp must be finite, got {}"),
        (lambda v: ExchangeRate(USD, CurrencyCode("EUR"), v), "rate USD->EUR must be finite, got {}"),
        (lambda v: MonMinPrice("Gold", USD, v), "Gold: minute price must be finite, got {}"),
        (lambda v: TimeStandard(v), "minutes_per_year must be finite, got {}"),
    ],
    ids=["EconomySnapshot", "MonMinValue", "PriceQuote", "AggregateYear.m1", "AggregateYear.gdp",
         "ExchangeRate", "MonMinPrice", "TimeStandard"],
)
def test_non_finite_numbers_are_rejected_by_name(make, message, text):
    """As text or as a Decimal, a non-finite number names its field and value."""
    for value in (text, D(text)):
        with pytest.raises(NonPositiveInput) as caught:
            make(value)
        assert str(caught.value) == message.format(D(text))
