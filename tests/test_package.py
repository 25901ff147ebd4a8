import inspect

import monmin

PUBLIC = {
    "AggregateSeries", "AggregateYear", "Basket", "CmSource", "ColumnRule", "CurrencyCode",
    "CurrencyMismatch", "DuplicateCountry", "DuplicatePair", "EconomySnapshot", "EmptySeries",
    "ExchangeRate", "ExtremaReport", "IngestFailure", "IngestReport", "Issue", "ItemMismatch",
    "ItemMismatchWarning", "MINUTES_PER_YEAR", "MINUTES_PER_YEAR_ASTRONOMICAL", "MalformedRow",
    "MonMinError", "MonMinPrice", "MonMinValue", "NonMonotoneYears", "NonPositiveInput",
    "PriceQuote", "RateTable", "ShapeMismatch", "TableId", "TableSpec", "TimeStandard",
    "TooShort", "UnknownCurrency", "as_decimal", "build_basket_listing", "build_percent_listing",
    "build_table1", "build_table2", "build_table3", "build_table4", "build_table4b",
    "build_table5", "compute_cm", "cross_cm", "detect_extrema", "emit_plot_data", "from_monmin",
    "invert_cm", "load_basket", "load_economies", "load_rates", "load_series", "m1_in_monmin",
    "parity_rate", "percent_of_salary", "render_table", "round_half_away", "round_significant",
    "series_in_monmin", "to_monmin", "write_basket", "write_economies", "write_plot_data",
    "write_rates", "write_series", "write_table",
}


def test_public_names_are_unchanged_and_resolve():
    assert len(PUBLIC) == 67
    assert len(monmin.__all__) == len(set(monmin.__all__))
    assert set(monmin.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(monmin, name) is not None, name
    assert monmin.__version__ == "0.1.0"


def test_each_name_is_exported_once_by_the_module_that_defines_it():
    modules = [monmin.core, monmin.errors, monmin.ingest, monmin.report, monmin.series]
    listed = [name for module in modules for name in module.__all__]
    assert sorted(listed) == sorted(PUBLIC)
    for module in modules:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name
            assert getattr(monmin, name) is value
