"""Seeded inputs, the invocations that run on them, and their output checks.

Inputs are written with the stdlib ``csv`` module only, never with
monmin's writers, so a seed gives byte-identical files on every commit.
Each workload puts a different module at the centre:

* ``paper-tables``: the golden report invocations plus the series plot,
  on the in-repo fixtures.  Interpreter start-up and imports dominate.
* ``economies-large``: a 100k-row economies file through ``cm``, and a
  dirty copy with 1% bad rows through the reject path (``ingest``).
* ``baskets-wide``: 250 currency contexts x 400 items through
  ``report --table 4``, ``basket`` and ``percent`` (``core`` per-quote
  arithmetic, ``load_basket`` grouping, hand-written CSV in ``cli``).
* ``series-long``: 20k noisy years through ``series --extrema
  --plot-data`` (``series`` and ``report.emit_plot_data``).
"""
from __future__ import annotations

import csv
import importlib.util
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import oracle

# (exit code, stdout, stderr) -> list of problems, empty when the output is right
Check = Callable[[int, bytes, bytes], list[str]]

SAMPLES = 200  # seeded rows re-derived by the oracle per output file
TABLE1_HEADER = ["country", "currency", "gdp", "population", "gdp_per_capita", "cm", "source"]


@dataclass
class Invocation:
    """One ``monmin`` command line and how to judge its result."""

    argv: list[str]
    check: Check
    inputs: list[Path]  # files the command ingests
    outputs: list[Path] = field(default_factory=list)  # files it must (re)write


@dataclass
class Workload:
    invocations: list[Invocation]
    rows: dict[Path, int]  # data rows per input file
    note: str = ""

    def pass_rows(self) -> int:
        """Input data rows ingested by one pass over the invocations."""
        return sum(self.rows[path] for inv in self.invocations for path in inv.inputs)


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Write the named workload's inputs for ``seed`` into ``work``."""
    return _GENERATORS[name](random.Random(f"{name}/{seed}"), root, work)


# ---------------------------------------------------------------------------
# helpers


def _write_csv(path: Path, preamble: list[str], header: list[str], rows, comment_every: int = 0) -> list[int]:
    """Write a CSV file; return the 1-based physical line of every data row."""
    lines: list[int] = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        lineno = 0
        for text in preamble:
            fh.write(text + "\n")
            lineno += 1
        out.writerow(header)
        lineno += 1
        for index, row in enumerate(rows):
            if comment_every and index and index % comment_every == 0:
                fh.write(f"# block {index // comment_every}\n\n")
                lineno += 2
            out.writerow(row)
            lineno += 1
            lines.append(lineno)
    return lines


def _data_rows(path: Path) -> int:
    """Rows that are neither blank, a comment, nor the header."""
    with open(path, encoding="utf-8") as fh:
        body = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
    return len(body) - 1


def _lines(data: bytes, expected_rows: int, what: str, problems: list[str]) -> list[str]:
    """Split an output file into lines and check header + row count."""
    text = data.decode("utf-8")
    lines = text.split("\n")
    if lines[-1] != "":
        problems.append(f"{what}: output does not end with a newline")
    lines = lines[:-1]
    if len(lines) != expected_rows + 1:
        problems.append(f"{what}: expected {expected_rows} rows, got {len(lines) - 1}")
    return lines


def _row(lines: list[str], index: int) -> list[str]:
    return next(csv.reader([lines[index]])) if index < len(lines) else []


def _compare(what: str, got: list[str], want: list[str], problems: list[str]) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, want {want}")


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def _series_points(path: Path):
    """Parse a series file the way the format defines it: (year, m1, gdp, population, events)."""
    scale = "1"
    header_seen = False
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for cells in csv.reader(fh):
            if not cells or not "".join(cells).strip():
                continue
            first = cells[0].strip()
            if first.startswith("#"):
                key, _, value = first.lstrip("#").partition("=")
                if key.strip() == "scale" and not header_seen:
                    scale = value.strip()
                continue
            if not header_seen:
                header_seen = True
                continue
            year, m1, gdp, pop = (c.strip() for c in cells[:4])
            events = cells[4].strip() if len(cells) > 4 else ""
            rows.append((int(year), oracle.scaled(m1, scale), oracle.scaled(gdp, scale), int(pop), events))
    return rows


def _extrema_lines(rows) -> tuple[bytes, list[int], list[int]]:
    points = [(year, oracle.m1_minutes(m1, gdp, pop)) for year, m1, gdp, pop, _ in rows]
    peaks, troughs = oracle.extrema(points)
    text = f"peaks: {' '.join(map(str, peaks))}\ntroughs: {' '.join(map(str, troughs))}\n"
    return text.encode(), peaks, troughs


def _expect(code: int, stdout: bytes, want_code: int, want_stdout: bytes | None, what: str) -> list[str]:
    problems = []
    if code != want_code:
        problems.append(f"{what}: exit code {code}, want {want_code}")
    if want_stdout is not None and stdout != want_stdout:
        problems.append(f"{what}: stdout differs from the expected {len(want_stdout)} bytes ({len(stdout)} bytes)")
    return problems


# ---------------------------------------------------------------------------
# paper-tables


def _golden_runs(root: Path):
    spec = importlib.util.spec_from_file_location("monmin_golden_conftest", root / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.golden_runs()


def _paper_tables(rng: random.Random, root: Path, work: Path) -> Workload:
    golden = root / "tests" / "golden"
    fixtures = root / "tests" / "fixtures"
    invocations = []
    rows: dict[Path, int] = {}

    def golden_check(name: str, want: bytes) -> Check:
        return lambda code, out, err: _expect(code, out, 0, want, name)

    for name, argv in _golden_runs(root):
        inputs = [Path(arg) for arg in argv if arg.endswith(".csv")]
        for path in inputs:
            rows[path] = _data_rows(path)
        invocations.append(Invocation(argv, golden_check(name, (golden / name).read_bytes()), inputs))

    series = fixtures / "series_us.csv"
    plot = work / "plot.csv"
    want_plot = (golden / "plot_series_us.csv").read_bytes()
    want_stdout = (golden / "table5.csv").read_bytes() + _extrema_lines(_series_points(series))[0]

    def series_check(code, out, err):
        problems = _expect(code, out, 0, want_stdout, "series stdout")
        if _read(plot) != want_plot:
            problems.append("series: plot data differs from tests/golden/plot_series_us.csv")
        return problems

    rows[series] = _data_rows(series)
    invocations.append(
        Invocation(["series", "--series", str(series), "--extrema", "--plot-data", str(plot)],
                   series_check, [series], [plot])
    )
    return Workload(invocations, rows)


# ---------------------------------------------------------------------------
# economies-large

ECONOMIES = 100_000
BAD_SHARE = 100  # one bad row in this many


def _currency_codes(rng: random.Random, count: int) -> list[str]:
    codes: set[str] = set()
    while len(codes) < count:
        codes.add("".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(3)))
    return sorted(codes)


def _economies_large(rng: random.Random, root: Path, work: Path) -> Workload:
    codes = _currency_codes(rng, 160)
    first_day = date(1990, 1, 1)
    rows = []
    for i in range(ECONOMIES):
        name = f"Testland {i:06d}, Federal Republic of" if i % 5 == 0 else f"Testland {i:06d}"
        milli = rng.randrange(1_000_000, 50_000_000_000)  # gdp in millions, 3 decimals
        rows.append([
            name,
            rng.choice(codes),
            f"{milli // 1000}.{milli % 1000:03d}",
            str(rng.randrange(50_000, 1_500_000_000)),
            (first_day + timedelta(days=rng.randrange(12_000))).isoformat(),
        ])
    preamble = ["# synthetic economies, gdp in millions", "# scale=1e6"]
    header = ["country", "currency", "gdp", "population", "as_of"]
    clean = work / "economies.csv"
    _write_csv(clean, preamble, header, rows, comment_every=997)

    bad = sorted(rng.sample(range(1, ECONOMIES), ECONOMIES // BAD_SHARE))
    bad_set = set(bad)
    dirty_rows = [list(row) for row in rows]
    for i in bad:
        row = dirty_rows[i]
        kind = rng.randrange(6)
        if kind == 0:
            row[2] = "n/a"
        elif kind == 1:
            row[3] = f"-{row[3]}"
        elif kind == 2:
            del row[4]
        elif kind == 3:
            row[1] = row[1].lower()
        elif kind == 4:
            row[2] = "0.000"
        else:  # duplicate of the closest earlier good row
            j = i - 1
            while j in bad_set:
                j -= 1
            row[0] = rows[j][0]
    dirty = work / "economies_dirty.csv"
    dirty_lines = _write_csv(dirty, preamble, header, dirty_rows, comment_every=997)
    want_bad_lines = sorted(dirty_lines[i] for i in bad)

    out = work / "table1.csv"
    sample = sorted(rng.sample(range(ECONOMIES), SAMPLES))

    def clean_check(code, stdout, stderr):
        problems = _expect(code, stdout, 0, b"", "cm")
        lines = _lines(_read(out), ECONOMIES, "cm --out", problems)
        _compare("cm header", _row(lines, 0), TABLE1_HEADER, problems)
        for i in sample:
            name, currency, gdp_text, pop_text, _ = rows[i]
            gdp = oracle.scaled(gdp_text, "1e6")
            pop = int(pop_text)
            want = [
                name, currency, oracle.rounded(gdp, 0), pop_text,
                oracle.rounded(oracle.per_capita(gdp, pop), 0),
                oracle.rounded(oracle.cm(gdp, pop), 7), "computed_from_gdp",
            ]
            _compare(f"cm row {i}", _row(lines, i + 1), want, problems)
        return problems

    prefix = f"{dirty}:"

    def dirty_check(code, stdout, stderr):
        problems = _expect(code, stdout, 2, b"", "cm on the dirty file")
        reported = []
        for line in stderr.decode("utf-8").splitlines():
            if line.startswith(prefix):
                number, sep, _ = line[len(prefix):].partition(": error: ")
                if sep:
                    reported.append(int(number))
        if reported != want_bad_lines:
            problems.append(
                f"dirty file: {len(reported)} error lines, want {len(want_bad_lines)} on the bad rows"
            )
        return problems

    return Workload(
        [
            Invocation(["cm", "--economies", str(clean), "--out", str(out)], clean_check, [clean], [out]),
            Invocation(["cm", "--economies", str(dirty)], dirty_check, [dirty]),
        ],
        {clean: ECONOMIES, dirty: ECONOMIES},
        f"{len(bad)} bad rows",
    )


# ---------------------------------------------------------------------------
# baskets-wide

CONTEXTS = 250
ITEMS = 400
UNITS = ["kg", "1 l", "piece", "12 pack", "500 g"]


def _baskets_wide(rng: random.Random, root: Path, work: Path) -> Workload:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    codes = ["Q" + letters[k // 676] + letters[k // 26 % 26] + letters[k % 26] for k in range(CONTEXTS)]
    rng.shuffle(codes)
    countries = [f"Market {k:03d}, Outer" if k % 7 == 0 else f"Market {k:03d}" for k in range(CONTEXTS)]
    economies = []
    cms = []
    for country, code in zip(countries, codes):
        milli = rng.randrange(1_000, 30_000_000)  # gdp in billions, 3 decimals
        gdp_text = f"{milli // 1000}.{milli % 1000:03d}"
        pop = rng.randrange(100_000, 1_500_000_000)
        economies.append([country, code, gdp_text, str(pop), "2019-01-01"])
        cms.append(oracle.cm(oracle.scaled(gdp_text, "1e9"), pop))
    econ_path = work / "economies.csv"
    _write_csv(econ_path, ["# scale=1e9"], ["country", "currency", "gdp", "population", "as_of"], economies)

    items = [
        (f"Item {m:03d}, assorted" if m % 9 == 0 else f"Item {m:03d}", UNITS[m % len(UNITS)])
        for m in range(ITEMS)
    ]
    amounts: list[list[str]] = []  # per context: item amounts, then the salary
    basket_rows = []
    for country, code in zip(countries, codes):
        cents = [rng.randrange(1, 5_000_000) for _ in range(ITEMS)] + [rng.randrange(50_000_000, 900_000_000)]
        texts = [f"{c // 100}.{c % 100:02d}" for c in cents]
        amounts.append(texts)
        for (item, unit), text in zip(items, texts):
            basket_rows.append([country, code, item, unit, text, "item"])
        basket_rows.append([country, code, "Salary, net", "month", texts[-1], "salary"])
    basket_path = work / "basket.csv"
    _write_csv(basket_path, ["# synthetic wide basket"], ["country", "currency", "item", "unit", "amount", "role"], basket_rows)

    per_context = ITEMS + 1
    labels = items + [("Salary, net", "month")]
    sample = [(rng.randrange(CONTEXTS), rng.randrange(per_context)) for _ in range(SAMPLES)]
    table4, listing, percents = work / "table4.csv", work / "basket_out.csv", work / "percent.csv"
    cm_notes = sorted(f"cm {code}={format(cm, 'f')} source=computed_from_gdp" for code, cm in zip(codes, cms))

    def notes_problems(stderr: bytes, what: str) -> list[str]:
        notes = sorted(line for line in stderr.decode("utf-8").splitlines() if line.startswith("cm "))
        return [] if notes == cm_notes else [f"{what}: {len(notes)} cm source notes, want {len(cm_notes)}"]

    def table4_check(code, stdout, stderr):
        problems = _expect(code, stdout, 0, b"", "report --table 4") + notes_problems(stderr, "report --table 4")
        lines = _lines(_read(table4), per_context, "table 4", problems)
        _compare("table 4 header", _row(lines, 0), ["item", "unit"] + countries, problems)
        for k, m in sample:
            row = _row(lines, m + 1)
            got = row[2 + k] if len(row) == 2 + CONTEXTS else None
            want = oracle.rounded(oracle.in_minutes(amounts[k][m], cms[k]), 0)
            if row[:2] != list(labels[m]) or got != want:
                problems.append(f"table 4 cell ({m}, {k}): got {row[:2]} {got}, want {list(labels[m])} {want}")
        return problems

    def listing_check(code, stdout, stderr):
        problems = _expect(code, stdout, 0, b"", "basket") + notes_problems(stderr, "basket")
        lines = _lines(_read(listing), CONTEXTS * per_context, "basket", problems)
        for k, m in sample:
            role = "salary" if m == ITEMS else "item"
            want = [countries[k], codes[k], *labels[m], amounts[k][m], role,
                    oracle.rounded(oracle.in_minutes(amounts[k][m], cms[k]), 0), "computed_from_gdp"]
            _compare(f"basket row ({k}, {m})", _row(lines, 1 + k * per_context + m), want, problems)
        return problems

    def percent_check(code, stdout, stderr):
        problems = _expect(code, stdout, 0, b"", "percent")
        lines = _lines(_read(percents), CONTEXTS * per_context, "percent", problems)
        for k, m in sample:
            want = [countries[k], codes[k], *labels[m],
                    oracle.rounded(oracle.percent(amounts[k][m], amounts[k][-1]), 2)]
            _compare(f"percent row ({k}, {m})", _row(lines, 1 + k * per_context + m), want, problems)
        return problems

    both = [basket_path, econ_path]
    return Workload(
        [
            Invocation(["report", "--table", "4", "--basket", str(basket_path), "--economies", str(econ_path),
                        "--out", str(table4)], table4_check, both, [table4]),
            Invocation(["basket", "--basket", str(basket_path), "--economies", str(econ_path),
                        "--out", str(listing)], listing_check, both, [listing]),
            Invocation(["percent", "--basket", str(basket_path), "--out", str(percents)],
                       percent_check, [basket_path], [percents]),
        ],
        {basket_path: len(basket_rows), econ_path: CONTEXTS},
    )


# ---------------------------------------------------------------------------
# series-long

YEARS = 20_000
FIRST_YEAR = 1000


def _series_long(rng: random.Random, root: Path, work: Path) -> Workload:
    rows = []
    m1 = 100_000  # billions, 3 decimals
    for t in range(YEARS):
        # upward drift with noise: about a third of the years end up as extrema
        m1 = max(1, m1 + round(rng.gauss(800, 1000)))
        gdp = 2_000_000 + t + rng.randrange(200)
        events = f"Event {t}, noted" if t % 50 == 0 else ""
        rows.append([str(FIRST_YEAR + t), f"{m1 // 1000}.{m1 % 1000:03d}",
                     f"{gdp // 1000}.{gdp % 1000:03d}", str(150_000_000 + 1_000 * t), events])
    path = work / "series.csv"
    _write_csv(path, ["# synthetic series, billions", "# scale=1e9"],
               ["year", "m1", "gdp", "population", "events"], rows)

    points = _series_points(path)
    want_stdout, peaks, troughs = _extrema_lines(points)
    markers = {year: "peak" for year in peaks} | {year: "trough" for year in troughs}
    minutes = [oracle.m1_minutes(m1, gdp, pop) for _, m1, gdp, pop, _ in points]
    table, plot = work / "table5.csv", work / "plot.csv"
    sample = sorted(rng.sample(range(YEARS), SAMPLES))

    def check(code, stdout, stderr):
        problems = _expect(code, stdout, 0, want_stdout, "series stdout (extrema)")
        lines = _lines(_read(table), YEARS, "series --out", problems)
        plot_lines = _lines(_read(plot), YEARS, "plot data", problems)
        for i in sample:
            year, m1, gdp, _, events = points[i]
            want = [str(year)] + [oracle.rounded(oracle.billions(v), 0) for v in (m1, minutes[i], gdp)]
            _compare(f"table 5 row {year}", _row(lines, i + 1), want + [events], problems)
            want = [str(year), format(m1, "f"), format(minutes[i], "f"), format(gdp, "f"), markers.get(year, "")]
            _compare(f"plot row {year}", _row(plot_lines, i + 1), want, problems)
        wrong = sum(
            1 for (year, *_), line in zip(points, plot_lines[1:])
            if line.rpartition(",")[2] != markers.get(year, "")
        )
        if wrong:
            problems.append(f"plot data: {wrong} extremum markers differ from the oracle scan")
        return problems

    return Workload(
        [Invocation(["series", "--series", str(path), "--extrema", "--plot-data", str(plot), "--out", str(table)],
                    check, [path], [table, plot])],
        {path: YEARS},
        f"{len(peaks) + len(troughs)} extrema in {YEARS} years",
    )


_GENERATORS = {
    "paper-tables": _paper_tables,
    "economies-large": _economies_large,
    "baskets-wide": _baskets_wide,
    "series-long": _series_long,
}
NAMES = tuple(_GENERATORS)
