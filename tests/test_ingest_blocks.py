"""The block path of the loaders: the same records, report and issues as the row path.

``load_economies``, ``load_basket`` and ``load_series`` read a regular file
a block of lines and rows at a time, and at the first doubt load the whole
file again row by row, which is the only path that reports issues.  These
tests compare the two paths on generated files with the block sizes patched
small, check each type's column form against its constructor, and pin the
inputs that stay on the row path.
"""
import csv
import io
import os
import stat
import tempfile
import threading
from contextlib import ExitStack
from datetime import date
from decimal import Decimal as D
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import FIXTURES
from monmin import (
    AggregateYear,
    CurrencyCode,
    EconomySnapshot,
    ExchangeRate,
    MonMinError,
    PriceQuote,
    load_basket,
    load_economies,
    load_rates,
    load_series,
)
from monmin import _ingest_blocks, ingest
from monmin.cli import main
from monmin.core import _quotes, _snapshots
from monmin.series import _years


def row_path(loader, path, **kwargs):
    """What ``loader`` returns with the block path switched off."""
    with mock.patch.object(ingest, "_block_path", lambda path: None):
        return loader(path, **kwargs)


def block_path_only(loader, path, **kwargs):
    """What ``loader`` returns when the row path must not run."""
    with mock.patch.object(ingest, "_read_table", mock.Mock(side_effect=AssertionError("row path"))):
        return loader(path, **kwargs)


def same(got, want):
    """Equal, with equal reprs too: ``Decimal("1.0") == Decimal("1.00")`` but their texts differ."""
    assert got == want
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# generated files


FILLER = st.sampled_from(["", "   ", "# note", "  # indented note", "#", "\t"])
CLEAN_PREAMBLE = ["", "# note", "# scale=1e3", "# scale=2", "#scale = 5", "   "]
BAD_PREAMBLE = ["# scale=NaN", "# scale=0", "# scale=1E+999999", "# scale=x"]


class Quality:
    """Which cells of a generated file may be bad: none, any, or one cell of the last row."""

    def __init__(self, draw, rows: int):
        self.draw, self.rows = draw, rows
        self.mode = draw(st.sampled_from(["clean", "clean", "dirty", "last"]))
        self.row = 0

    @property
    def dirty(self) -> bool:
        return self.mode == "dirty"

    def next_row(self, width: int) -> None:
        """Start a row; on the last row of a "last" file, pick the one cell that is bad."""
        self.row += 1
        last = self.mode == "last" and self.row == self.rows
        self.forced = self.draw(st.integers(0, width - 1)) if last else None
        self.column = -1

    def cell(self, good: list[str], bad: list[str]) -> str:
        """A text from ``good``; from ``bad`` now and then in a dirty file, always for a forced cell."""
        self.column += 1
        if self.column == self.forced:
            if bad:
                return self.draw(st.sampled_from(bad))
            self.forced += 1  # this column has no bad text: the next one is bad instead
        return self.draw(st.sampled_from(good * 4 + bad if self.dirty else good))


@st.composite
def csv_file(draw, quality: Quality, header: list[str], rows: list[list[str]]) -> bytes:
    """A file with the header and rows, and everything the format lets around them."""
    terminator = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    preamble = CLEAN_PREAMBLE + BAD_PREAMBLE * quality.dirty
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=terminator)
    for line in draw(st.lists(st.sampled_from(preamble), max_size=3)):
        out.write(line + terminator)
    writer.writerow(header)
    for row in rows:
        for line in draw(st.lists(FILLER, max_size=1 if draw(st.booleans()) else 0)):
            out.write(line + terminator)
        if quality.dirty and draw(st.integers(0, 15)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        writer.writerow(row)
    for line in draw(st.lists(FILLER, max_size=2)):
        out.write(line + terminator)
    data = (("\ufeff" if draw(st.booleans()) else "") + out.getvalue()).encode("utf-8")
    if quality.dirty and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def economies_files(draw):
    quality = Quality(draw, draw(st.integers(0, 25)))
    rows = []
    for i in range(quality.rows):
        quality.next_row(5)
        previous = [rows[-1][0]] if rows else ["Land"]  # a duplicate
        rows.append([
            quality.cell([f"Land {i}", f"Land {i}, Rep", f"Česko {i}", f" Land {i} ", f"Land\n{i}",
                          f"Land\n\n{i}"], previous),
            quality.cell(["USD", "EUR", "CZK"], [" CZK", "usd", ""]),
            quality.cell(["100", "1.5", "2E+3", " 7 ", "1_000"], ["0", "-1", "abc", "NaN", "Infinity", "1e999999"]),
            quality.cell(["10", "5", " 3"], ["0", "-2", "x", "1.0"]),
            quality.cell(["2019-01-01", "2020-02-29"] * 4 + [" 2019-01-01"], ["20190101", "2019-02-30", "2019-W01-1"]),
        ])
    return draw(csv_file(quality, ingest._ECONOMIES_HEADER, rows))


@st.composite
def basket_files(draw):
    contexts = [("A", "USD"), ("B", "EUR"), ("A", "EUR"), (" A ", "USD"), ("Č, C", "CZK")]
    quality = Quality(draw, draw(st.integers(0, 25)))
    chosen = [contexts[k] for k in draw(st.lists(st.integers(0, 4), min_size=quality.rows, max_size=quality.rows))]
    if draw(st.booleans()):
        chosen.sort()  # runs of one context, as files usually have
    rows = []
    salaried = set()
    for country, code in chosen:
        quality.next_row(6)
        row = [
            quality.cell([country], []),
            quality.cell([code], ["GBP", " USD", "x"]),
            quality.cell(["Bread", "Milk", "Rice, white", "Čaj", " Bread ", "Multi\nline"], []),
            quality.cell(["kg", "1 l", "piece"], []),
            quality.cell(["1", "2.50", "0", " 3 "], ["-1", "abc", "NaN"]),
            quality.cell(["item", "item", "salary"] if (country.strip(), code) not in salaried else ["item"],
                         ["salary", " item", "bogus"]),
        ]
        if row[5] == "salary":
            salaried.add((row[0].strip(), row[1]))
        rows.append(row)
    known = draw(st.sampled_from([None, {"USD", "EUR", "CZK"}] + [{"USD"}] * quality.dirty))
    return draw(csv_file(quality, ingest._BASKET_HEADER, rows)), {"known_currencies": known}


@st.composite
def series_files(draw):
    header = ingest._SERIES_HEADER + ["events"] * draw(st.booleans())
    quality = Quality(draw, draw(st.integers(0, 25)))
    rows = []
    year = draw(st.integers(1900, 2000))
    for _ in range(quality.rows):
        quality.next_row(4)
        year += draw(st.sampled_from([1, 1, 3] + [0, -1] * quality.dirty))
        row = [
            quality.cell([str(year), f" {year} "], ["x", "1.5"]),
            quality.cell(["1", "2.5", "0"], ["-1", "abc"]),
            quality.cell(["3", "4.25"], ["0", "NaN", "1E+999999"]),
            quality.cell(["5", "7"], ["0", "x"]),
        ]
        if draw(st.booleans()):
            row.append(draw(st.sampled_from(["", "War", "Crash, big", "multi\nline", " pad "])))
        rows.append(row)
    return draw(csv_file(quality, header, rows))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=st.one_of(
        economies_files().map(lambda data: (load_economies, data, {})),
        basket_files().map(lambda made: (load_basket, *made)),
        series_files().map(lambda data: (load_series, data, {})),
    ),
    block_rows=st.sampled_from([1, 2, 7, 1024]),
    block_chars=st.sampled_from([1, 40, 300, 1 << 16]),
)
def test_block_path_loads_what_the_row_path_loads(case, block_rows, block_chars):
    loader, data, kwargs = case
    with tempfile.TemporaryDirectory() as work, ExitStack() as patches:
        path = Path(work) / "input.csv"
        path.write_bytes(data)
        want = row_path(loader, path, **kwargs)
        patches.enter_context(mock.patch.object(ingest, "_BLOCK_ROWS", block_rows))
        patches.enter_context(mock.patch.object(ingest, "_BLOCK_CHARS", block_chars))
        same(loader(path, **kwargs), want)


class TestBlockPathRuns:
    """A clean file is loaded by the block path alone, whatever the block sizes."""

    CASES = [
        (load_economies, "economies_table1.csv"),
        (load_basket, "basket_food.csv"),
        (load_basket, "basket_commodities.csv"),
        (load_series, "series_us.csv"),
    ]

    @pytest.mark.parametrize("loader,name", CASES)
    @pytest.mark.parametrize("block_rows,block_chars", [(1, 1), (2, 50), (256, 400)])
    def test_fixture(self, loader, name, block_rows, block_chars):
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows), \
                mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            got = block_path_only(loader, FIXTURES / name)
        same(got, row_path(loader, FIXTURES / name))

    def test_quoted_cell_across_a_block_edge(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(
            "# scale=1e3\ncountry,currency,gdp,population,as_of\n"
            '"North\n  \n# not in the cell\nLand",USD,100,10,2019-01-01\nB,EUR,2,3,2020-01-01\n',
            encoding="utf-8",
        )
        with mock.patch.object(ingest, "_BLOCK_CHARS", 1), mock.patch.object(ingest, "_BLOCK_ROWS", 1):
            got = block_path_only(load_economies, path)
        assert got[0][0].country == "North\nLand" and got[0][0].gdp == D("1.00E+5")
        same(got, row_path(load_economies, path))

    @pytest.mark.parametrize("loader,name", [
        (load_economies, "dirty_economies.csv"),
        (load_basket, "dirty_basket.csv"),
        (load_series, "dirty_series.csv"),
    ])
    def test_a_file_with_issues_is_reported_by_the_row_path(self, loader, name):
        with mock.patch.object(ingest, "_BLOCK_CHARS", 64), \
                mock.patch.object(_ingest_blocks, "_load", wraps=_ingest_blocks._load) as blocks, \
                mock.patch.object(ingest, "_read_table", wraps=ingest._read_table) as rows:
            got = loader(FIXTURES / name)
        assert blocks.call_count == rows.call_count == 1 and got[1].errors
        same(got, row_path(loader, FIXTURES / name))

    def test_files_of_many_blocks_at_the_default_sizes(self, tmp_path):
        economies, basket, series = (tmp_path / name for name in ("e.csv", "b.csv", "s.csv"))
        with open(economies, "w", newline="") as fh:
            fh.write("# scale=1e6\ncountry,currency,gdp,population,as_of\n")
            csv.writer(fh).writerows(
                [f"Land {i}, Rep", "USD", f"{i}.5", i + 1, f"20{i % 20:02d}-01-0{1 + i % 9}"] for i in range(3000)
            )
        with open(basket, "w", newline="") as fh:
            fh.write("country,currency,item,unit,amount,role\n")
            for k in range(24):
                csv.writer(fh).writerows([f"M {k}", "EUR", f"Item {m}", "kg", f"{m}.25", "item"] for m in range(300))
                fh.write(f"M {k},EUR,\"Salary, net\",month,100,salary\n")
        with open(series, "w", newline="") as fh:
            fh.write("# scale=1e9\nyear,m1,gdp,population,events\n")
            csv.writer(fh).writerows([1000 + t, f"{t}.5", f"{t + 1}.25", t + 5, "War" * (t % 7 == 0)] for t in range(6000))
        for loader, path in ((load_economies, economies), (load_basket, basket), (load_series, series)):
            assert path.stat().st_size > 2 * ingest._BLOCK_CHARS
            same(block_path_only(loader, path), row_path(loader, path))

    @mock.patch.object(ingest, "_BLOCK_CHARS", 1)
    def test_file_is_closed_before_the_row_path_reads_it(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("country,currency,gdp,population,as_of\nA,USD,abc,10,2019-01-01\n")
        opened = []
        real_open = open

        def tracking_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        def read_table(*args, **kwargs):
            assert opened and all(handle.closed for handle in opened)
            return real_read_table(*args, **kwargs)

        real_read_table = ingest._read_table
        with mock.patch("builtins.open", tracking_open), \
                mock.patch.object(ingest, "_read_table", read_table):
            _, report = load_economies(path)
        assert [e.line for e in report.errors] == [2]


class TestBlockEdges:
    """Inputs at the edges of the block path, in files of many blocks at the default sizes."""

    @staticmethod
    def economies(path, preamble: bytes = b"", last: bytes = b"",
                  header: bytes = b"country,currency,gdp,population,as_of\n") -> None:
        rows = "".join(f"Land {i},USD,{i}.5,{i + 1},2019-01-01\n" for i in range(3000)).encode()
        path.write_bytes(preamble + header + rows + last)
        assert path.stat().st_size > ingest._BLOCK_CHARS

    @staticmethod
    def basket(path, last: str) -> None:
        """3,000 item rows of basket M0 in EUR on lines 2-3001, then ``last``."""
        rows = "".join(f"M0,EUR,Item {m},kg,{m}.25,item\n" for m in range(3000))
        path.write_text("country,currency,item,unit,amount,role\n" + rows + last)
        assert path.stat().st_size > ingest._BLOCK_CHARS

    @staticmethod
    def series(path, last: str) -> None:
        """Years 1000-3499 on lines 2-2501, then ``last``."""
        rows = "".join(f"{1000 + t},{t}.5,{t + 1}.25,{t + 5},Event {t}\n" for t in range(2500))
        path.write_text("year,m1,gdp,population,events\n" + rows + last)
        assert path.stat().st_size > ingest._BLOCK_CHARS

    @staticmethod
    def issues(loaded):
        data, report = loaded
        assert not data
        return [(issue.line, issue.message) for issue in report.errors]

    # Each file below is refused by the row path alone; the block path must doubt it, not load it.

    def test_a_bad_scale_factor_is_refused(self, tmp_path):
        path = tmp_path / "e.csv"
        self.economies(path, preamble=b"# scale=abc\n")
        assert self.issues(load_economies(path)) == [(1, "MalformedRow: bad scale factor 'abc'")]

    def test_a_file_of_only_comment_lines_has_no_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("# a note\n" * 8000)
        assert path.stat().st_size > ingest._BLOCK_CHARS
        assert self.issues(load_economies(path)) == [(1, "MalformedRow: missing header row")]

    def test_a_wrong_header_is_refused(self, tmp_path):
        path = tmp_path / "e.csv"
        self.economies(path, header=b"country,currency,gdp,pop,as_of\n")
        assert self.issues(load_economies(path)) == [(1, (
            "MalformedRow: header ['country', 'currency', 'gdp', 'pop', 'as_of'] does not match "
            "['country', 'currency', 'gdp', 'population', 'as_of']"
        ))]

    def test_a_row_of_six_cells_is_refused(self, tmp_path):
        path = tmp_path / "e.csv"
        self.economies(path, last=b"Extra,USD,1,1,2019-01-01,6\n")
        assert self.issues(load_economies(path)) == [(3002, "MalformedRow: expected 5 columns, got 6")]

    def test_a_zero_gdp_is_refused(self, tmp_path):
        path = tmp_path / "e.csv"
        self.economies(path, last=b"Zero,USD,0,1,2019-01-01\n")
        assert self.issues(load_economies(path)) == [(3002, "NonPositiveInput: Zero: gdp must be > 0, got 0")]

    def test_a_zero_population_is_refused(self, tmp_path):
        path = tmp_path / "e.csv"
        self.economies(path, last=b"Zero,USD,1,0,2019-01-01\n")
        assert self.issues(load_economies(path)) == [
            (3002, "NonPositiveInput: Zero: population must be a positive integer, got 0")
        ]

    def test_a_country_defined_twice_is_refused(self, tmp_path):
        path = tmp_path / "e.csv"
        self.economies(path, last=b"Land 7,USD,1,1,2019-01-01\n")
        assert self.issues(load_economies(path)) == [(3002, "DuplicateCountry: Land 7 already defined on line 9")]

    def test_an_unknown_role_is_refused(self, tmp_path):
        path = tmp_path / "b.csv"
        self.basket(path, "M0,EUR,Gold,oz,1,extra\n")
        assert self.issues(load_basket(path)) == [(3002, "MalformedRow: role must be item or salary, got 'extra'")]

    def test_a_currency_outside_the_known_set_is_refused(self, tmp_path):
        path = tmp_path / "b.csv"
        self.basket(path, "M1,USD,Gold,oz,1,item\n")
        assert self.issues(load_basket(path, known_currencies=["EUR"])) == [
            (3002, "UnknownCurrency: USD is not in the known set")
        ]

    def test_a_negative_amount_is_refused(self, tmp_path):
        path = tmp_path / "b.csv"
        self.basket(path, "M0,EUR,Gold,oz,-1,item\n")
        assert self.issues(load_basket(path)) == [(3002, "NonPositiveInput: Gold: amount must be >= 0, got -1")]

    @pytest.mark.parametrize("last,line", [
        ("M0,EUR,Pay,month,100,salary\nM0,EUR,Gold,oz,1,item\nM0,EUR,Pay,month,200,salary\n", 3004),
        ("M0,EUR,Pay,month,100,salary\nM0,EUR,Pay,month,200,salary\n", 3003),
    ], ids=["later", "adjacent"])
    def test_a_second_salary_row_is_refused(self, tmp_path, last, line):
        path = tmp_path / "b.csv"
        self.basket(path, last)
        assert self.issues(load_basket(path)) == [(line, "MalformedRow: duplicate salary row for M0")]

    def test_a_year_out_of_order_is_refused(self, tmp_path):
        """``AggregateSeries`` refuses the years too; the block path takes that as a doubt."""
        path = tmp_path / "s.csv"
        self.series(path, "1100,1,1,1,\n")
        assert self.issues(load_series(path)) == [(2502, "NonMonotoneYears: 1100 does not follow 3499")]

    def test_a_negative_m1_is_refused(self, tmp_path):
        path = tmp_path / "s.csv"
        self.series(path, "3500,-1,1,1,\n")
        assert self.issues(load_series(path)) == [(2502, "NonPositiveInput: 3500: m1 must be >= 0, got -1")]

    def test_a_bad_byte_beside_other_non_ascii_text_is_refused(self, tmp_path):
        """The last block holds text that is not ASCII and a byte that is not UTF-8: the file is refused."""
        path = tmp_path / "e.csv"
        self.economies(path, last="Café ".encode() + b"\xe7,USD,1,1,2019-01-01\n")
        snapshots, report = load_economies(path)
        assert snapshots == []
        assert [(issue.line, issue.message) for issue in report.errors] == [
            (3002, "MalformedRow: not valid UTF-8: byte 0xE7 at column 6")
        ]

    def test_a_scale_after_a_long_comment_preamble_applies(self, tmp_path):
        """The first read holds only comment lines; the ``# scale=`` line after them still counts."""
        path = tmp_path / "e.csv"
        self.economies(path, preamble=b"# gdp in millions\n" * 400 + b"# scale=1e6\n")
        snapshots, _ = block_path_only(load_economies, path)
        assert snapshots[0].gdp == D("0.5E+6") and len(snapshots) == 3000
        same((snapshots, _), row_path(load_economies, path))

    def test_a_clean_basket_in_known_currencies_takes_the_block_path(self, tmp_path):
        path = tmp_path / "b.csv"
        with open(path, "w", newline="") as fh:
            fh.write("country,currency,item,unit,amount,role\n")
            for k, code in enumerate(("EUR", "USD")):
                csv.writer(fh).writerows([f"M {k}", code, f"Item {m}", "kg", f"{m}.25", "item"] for m in range(1500))
        assert path.stat().st_size > ingest._BLOCK_CHARS
        got = block_path_only(load_basket, path, known_currencies={"EUR", "USD", "GBP"})
        same(got, row_path(load_basket, path, known_currencies={"EUR", "USD", "GBP"}))


def test_small_files_and_other_inputs_take_the_row_path(tmp_path):
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    small.write_text("x" * (ingest._BLOCK_CHARS - 1))
    large.write_text("x" * ingest._BLOCK_CHARS)
    assert ingest._block_path(large) is _ingest_blocks
    for path in (small, tmp_path / "missing.csv", tmp_path):
        assert ingest._block_path(path) is None


def test_a_large_input_that_is_not_a_regular_file_takes_the_row_path(tmp_path):
    # a pipe whose stat size reads a block or more must still be read only once
    pipe = os.stat_result((stat.S_IFIFO | 0o600, 0, 0, 0, 0, 0, ingest._BLOCK_CHARS, 0, 0, 0))
    with mock.patch.object(os, "stat", return_value=pipe):
        assert ingest._block_path(tmp_path / "input.csv") is None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
@pytest.mark.parametrize("loader,name", [
    (load_economies, "economies_table1.csv"),
    (load_economies, "dirty_economies.csv"),
    (load_basket, "basket_food.csv"),
    (load_series, "dirty_series.csv"),
])
def test_a_fifo_is_read_once_by_the_row_path(tmp_path, loader, name):
    fifo = tmp_path / "input.csv"
    os.mkfifo(fifo)
    data = (FIXTURES / name).read_bytes()
    result = []

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    def load():
        result.append(loader(fifo))

    threads = [threading.Thread(target=feed, daemon=True), threading.Thread(target=load, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads), "the FIFO was opened twice"
    same(result[0], row_path(loader, FIXTURES / name))


# ---------------------------------------------------------------------------
# column forms


DECIMALS = st.one_of(
    st.decimals(allow_nan=True, allow_infinity=True, places=None),
    st.sampled_from([D(0), D("-0"), D("0.00"), D(1), D("1E+999999"), D("-1"), D("sNaN")]),
)
POPULATIONS = st.one_of(st.integers(-2, 3), st.integers(1, 10**15))
CODES = st.sampled_from([CurrencyCode("USD"), CurrencyCode("EUR")])


def check_column_form(cls, column_form, rows):
    try:
        want = [cls(*row) for row in rows]
    except MonMinError:
        want = None
    got = column_form(*map(list, zip(*rows)))
    if want is None:
        assert got is None
    else:
        same(got, want)


@given(st.lists(st.tuples(st.text(max_size=3), CODES, DECIMALS, POPULATIONS, st.dates()), min_size=1, max_size=6))
def test_snapshot_column_form(rows):
    check_column_form(EconomySnapshot, _snapshots, rows)


@given(st.lists(st.tuples(st.text(max_size=3), st.text(max_size=2), CODES, DECIMALS), min_size=1, max_size=6))
def test_quote_column_form(rows):
    check_column_form(PriceQuote, _quotes, rows)


@given(st.lists(st.tuples(st.integers(1900, 2100), DECIMALS, DECIMALS, POPULATIONS, st.text(max_size=3)),
                min_size=1, max_size=6))
def test_year_column_form(rows):
    check_column_form(AggregateYear, _years, rows)


# ---------------------------------------------------------------------------
# scale directives and scaled cells


class TestScale:
    ECONOMIES = "# scale={}\ncountry,currency,gdp,population,as_of\nX,USD,100,10,2019-01-01\nY,EUR,1,2,2019-01-01\n"
    SERIES = "# scale={}\nyear,m1,gdp,population\n2000,1,1,5\n2001,100,2,5\n"

    @pytest.mark.parametrize("scale", ["NaN", "sNaN", "Infinity", "-Infinity", "-NaN"])
    @pytest.mark.parametrize("loader,body", [(load_economies, ECONOMIES), (load_series, SERIES)])
    def test_non_finite_scale_is_one_issue_on_its_line(self, tmp_path, loader, body, scale):
        path = tmp_path / "f.csv"
        path.write_text(body.format(scale))
        data, report = loader(path)
        assert not data
        assert [(e.line, e.message) for e in report.errors] == [
            (1, f"MalformedRow: bad scale factor {scale!r}")
        ]

    @pytest.mark.parametrize("loader,body,line", [(load_economies, ECONOMIES, 3), (load_series, SERIES, 4)])
    def test_scaled_cell_past_the_exponent_limit_is_an_issue_on_its_row(self, tmp_path, loader, body, line):
        path = tmp_path / "f.csv"
        path.write_text(body.format("1E+999999"))
        data, report = loader(path)
        assert not data
        assert [(e.line, e.message) for e in report.errors] == [(
            line, "MalformedRow: '100' times the scale factor 1E+999999 is past the decimal exponent limit"
        )]

    # A number other than zero whose scaled product underflows to zero: a zero
    # gdp would be blamed on a value the file never wrote, and a zero m1 loads.
    UNDERFLOWS = {
        "gdp": (load_economies, "cm", "--economies",
                "# scale=1E-999999\ncountry,currency,gdp,population,as_of\nX,USD,1,10,2019-01-01\nY,EUR,1E-30,2,2019-01-01\n"),
        "m1": (load_series, "series", "--series", "# scale=1E-999999\nyear,m1,gdp,population\n2000,1,1,5\n2001,1E-30,2,5\n"),
    }
    UNDERFLOW = "MalformedRow: '1E-30' times the scale factor 1E-999999 is past the decimal exponent limit"

    @pytest.mark.parametrize("block_rows,block_chars", [(None, None), (1, 1), (2, 40)])
    @pytest.mark.parametrize("column", sorted(UNDERFLOWS))
    def test_scaled_cell_that_underflows_to_zero_is_an_issue_on_its_row(self, tmp_path, column, block_rows, block_chars):
        loader, _, _, body = self.UNDERFLOWS[column]
        path = tmp_path / "f.csv"
        path.write_text(body)
        with ExitStack() as patches:
            if block_rows:
                patches.enter_context(mock.patch.object(ingest, "_BLOCK_ROWS", block_rows))
                patches.enter_context(mock.patch.object(ingest, "_BLOCK_CHARS", block_chars))
            data, report = loader(path)
        assert not data
        assert [(e.line, e.message) for e in report.errors] == [(4, self.UNDERFLOW)]

    @pytest.mark.parametrize("block_rows,block_chars", [(None, None), (1, 1)])
    def test_a_zero_scaled_to_zero_still_loads(self, tmp_path, block_rows, block_chars):
        path = tmp_path / "s.csv"
        path.write_text("# scale=1E-999999\nyear,m1,gdp,population\n2000,0,1,5\n2001,0E-30,2,5\n")
        with ExitStack() as patches:
            if block_rows:
                patches.enter_context(mock.patch.object(ingest, "_BLOCK_ROWS", block_rows))
                patches.enter_context(mock.patch.object(ingest, "_BLOCK_CHARS", block_chars))
                patches.enter_context(mock.patch.object(ingest, "_read_table", side_effect=AssertionError("row path")))
            series, report = load_series(path)
        assert report.ok and [y.m1 for y in series.years] == [0, 0]

    # A subnormal product keeps fewer digits than every other scaled cell: an
    # exact one (line 3) loads, one that lost digits (line 4) is refused.
    SUBNORMAL = (
        "# scale=1E-999990\nyear,m1,gdp,population\n"
        "2000,1E-20,1,5\n2001,1.2345678901234567890123E-20,2,5\n"
    )
    LOST_DIGITS = (
        "MalformedRow: '1.2345678901234567890123E-20' times the scale factor 1E-999990 "
        "is past the decimal exponent limit"
    )

    @pytest.mark.parametrize("block_rows,block_chars", [(None, None), (1, 1), (2, 40)])
    def test_subnormal_product_that_lost_digits_is_an_issue_on_its_row(self, tmp_path, block_rows, block_chars):
        path = tmp_path / "s.csv"
        path.write_text(self.SUBNORMAL)
        with ExitStack() as patches:
            if block_rows:
                patches.enter_context(mock.patch.object(ingest, "_BLOCK_ROWS", block_rows))
                patches.enter_context(mock.patch.object(ingest, "_BLOCK_CHARS", block_chars))
            series, report = load_series(path)
        assert not series
        assert [(e.line, e.message) for e in report.errors] == [(4, self.LOST_DIGITS)]

    @pytest.mark.parametrize("block_rows,block_chars", [(None, None), (1, 1)])
    def test_exact_subnormal_product_loads(self, tmp_path, block_rows, block_chars):
        path = tmp_path / "s.csv"
        path.write_text(self.SUBNORMAL.rsplit("2001,", 1)[0] + "2001,2E-20,2,5\n")
        with ExitStack() as patches:
            if block_rows:
                patches.enter_context(mock.patch.object(ingest, "_BLOCK_ROWS", block_rows))
                patches.enter_context(mock.patch.object(ingest, "_BLOCK_CHARS", block_chars))
            series, report = load_series(path)
        assert report.ok and [str(y.m1) for y in series.years] == ["1E-1000010", "2E-1000010"]

    def test_cli_exits_2_naming_the_subnormal_line(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text(self.SUBNORMAL)
        code = main(["series", "--series", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"{path}:4: error: {self.LOST_DIGITS}\n" in captured.err

    @pytest.mark.parametrize("column", sorted(UNDERFLOWS))
    def test_cli_exits_2_naming_the_underflowing_line(self, tmp_path, capsys, column):
        _, command, flag, body = self.UNDERFLOWS[column]
        path = tmp_path / "f.csv"
        path.write_text(body)
        code = main([command, flag, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:4: error: {self.UNDERFLOW}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scale,line", [("NaN", 1), ("Infinity", 1), ("1E+999999", None)])
    @pytest.mark.parametrize("command,flag,body,row", [
        ("cm", "--economies", ECONOMIES, 3),
        ("series", "--series", SERIES, 4),
    ])
    def test_cli_exits_2_naming_the_line(self, tmp_path, capsys, command, flag, body, row, scale, line):
        path = tmp_path / "f.csv"
        path.write_text(body.format(scale))
        code = main([command, flag, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:{line or row}: error: MalformedRow: " in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# as_of dates


class TestIsoDates:
    """``as_of`` reads ``YYYY-MM-DD`` in ASCII digits alone, on every Python version."""

    REFUSED = ["20190101", "2019-W01-1", "2019-W01", "2019-1-01", "2019-01-01T00:00", "２０１９-01-01", "2019-01-1"]

    @pytest.mark.parametrize("text", REFUSED)
    def test_types_refuse_other_forms(self, text):
        message = f"Invalid isoformat string: {text!r}"
        with pytest.raises(ValueError) as snapshot:
            EconomySnapshot("X", CurrencyCode("USD"), D(1), 1, text)
        with pytest.raises(ValueError) as rate:
            ExchangeRate(CurrencyCode("USD"), CurrencyCode("EUR"), D(1), text)
        assert str(snapshot.value) == str(rate.value) == message

    @pytest.mark.parametrize("text", REFUSED)
    def test_loaders_refuse_other_forms(self, tmp_path, text):
        economies = tmp_path / "e.csv"
        economies.write_text(f"country,currency,gdp,population,as_of\nX,USD,1,1,{text}\n", encoding="utf-8")
        rates = tmp_path / "r.csv"
        rates.write_text(f"base,quote,rate,as_of\nUSD,EUR,1,{text}\n", encoding="utf-8")
        want = [(2, f"MalformedRow: Invalid isoformat string: {text!r}")]
        for loader, path in ((load_economies, economies), (load_rates, rates)):
            _, report = loader(path)
            assert [(e.line, e.message) for e in report.errors] == want

    def test_the_one_form_loads(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("country,currency,gdp,population,as_of\nX,USD,1,1, 2020-02-29 \n")
        snapshots, report = load_economies(path)
        assert report.ok and snapshots[0].as_of == date(2020, 2, 29)
