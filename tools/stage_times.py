"""Per-stage timings of monmin: the loaders and the table writer in-process, and whole processes.

Run from the root of a checkout, with that checkout's ``src`` importable:

    PYTHONPATH=src python tools/stage_times.py --rows 100000 --repeat 7 --seed 1

The inputs are written from the seed with the stdlib ``csv`` module, never
with monmin's writers, into a temporary directory that is removed at the
end.  Each stage runs ``--repeat`` times after one untimed warm-up, and the
median wall time is printed in milliseconds, one line per stage, followed
by one JSON object with the same figures.  The cyclic garbage collector is
off during each timed run, as ``monmin.cli.main`` has it while a command
runs; a library caller with the collector on also pays its passes over
the values already loaded.  Stages:

* ``load_economies``: the economies file, with a ``# scale=`` line, comment
  and blank lines and quoted names; ``load_economies_dirty``: a copy with
  one bad row in a hundred (the loader reports them and returns nothing);
* ``load_basket``: 400 items plus a salary row per currency context;
* ``load_series``: one year per row, scaled, some with events;
* ``write_table1``, ``write_table4``, ``write_basket_listing``,
  ``write_percent_listing``, ``write_table5``: build the table from the
  loaded values and write it as CSV into memory;
* ``write_plot_data``: the series' plot data, with its extrema marked,
  written as CSV into memory.

It also times whole ``monmin`` processes, alternating ``--repeat`` times
between ``python -c pass``, ``python -m monmin.cli --help`` and ``report
--table 1`` on ``tests/fixtures/economies_table1.csv``, and prints the
median of each part of a process, in milliseconds:

* ``process_bare``: ``python -c pass``, the interpreter alone;
* ``process_help``: the whole ``--help`` process, which loads ``monmin``,
  ``monmin.cli`` and ``monmin.errors`` alone;
* ``process_whole``: the ``report --table 1`` process, from its start to
  its end as the parent sees them;
* ``process_import``: from its start until ``monmin.cli`` is imported,
  interpreter start-up included; the command's own modules are not
  loaded yet;
* ``process_command``: from then until ``cli.main`` returns, which
  includes importing ``core``, ``ingest`` and ``report``, the modules
  the command runs;
* ``process_exit``: from then until the process has ended.

The child is a ``-c`` wrapper that writes ``time.perf_counter()`` (the
system-wide monotonic clock on Linux, so it agrees with the parent's) to a
pipe after the import and after ``main`` returns, then runs ``cli.entry()``
as the console script does.

Only the stdlib and ``monmin`` are used.  The numbers are for comparing two
checkouts on one machine, by running this script on each in turn.
"""
from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

from monmin import core, ingest, report, series

ITEMS = 400  # items per basket context, plus one salary row
TABLE1 = ["report", "--table", "1", "--economies",
          str(Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "economies_table1.csv")]
# The timed child: argv[1] is the write end of the parent's pipe, the rest is monmin's argv.
_WRAPPER = """
import os, sys, time
import monmin.cli as cli
fd = int(sys.argv[1])
os.write(fd, b"%r\\n" % time.perf_counter())
main = cli.main

def timed(argv=None):
    code = main(argv)
    os.write(fd, b"%r\\n" % time.perf_counter())
    return code

cli.main = timed
sys.argv = ["monmin", *sys.argv[2:]]
cli.entry()
"""


def _write(path: Path, preamble: list[str], header: list[str], rows, comment_every: int = 0) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in preamble)
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        for index, row in enumerate(rows):
            if comment_every and index and index % comment_every == 0:
                fh.write(f"# block {index // comment_every}\n\n")
            out.writerow(row)


def write_inputs(work: Path, rows: int, seed: int) -> dict[str, Path]:
    """The seeded input files for ``rows`` data rows each (baskets: whole contexts)."""
    rng = random.Random(seed)
    contexts = max(2, rows // (ITEMS + 1))
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    codes = ["Q" + letters[k // 676 % 26] + letters[k // 26 % 26] + letters[k % 26]
             for k in range(max(contexts, 160))]
    economies = []
    for i in range(rows):
        name = f"Land {i:06d}, Federal Republic of" if i % 5 == 0 else f"Land {i:06d}"
        milli = rng.randrange(1_000_000, 50_000_000_000)
        day = date(1990, 1, 1) + timedelta(days=rng.randrange(12_000))
        economies.append([name, codes[i % len(codes)], f"{milli // 1000}.{milli % 1000:03d}",
                          str(rng.randrange(50_000, 1_500_000_000)), day.isoformat()])
    header = ["country", "currency", "gdp", "population", "as_of"]
    paths = {name: work / f"{name}.csv" for name in ("economies", "economies_dirty", "basket", "series")}
    _write(paths["economies"], ["# gdp in millions", "# scale=1e6"], header, economies, comment_every=997)
    dirty = [list(row) for row in economies]
    for i in range(1, rows, 100):
        dirty[i][2] = "n/a"
    _write(paths["economies_dirty"], ["# scale=1e6"], header, dirty, comment_every=997)

    quotes = []
    for k in range(contexts):
        market = f"Market {k:03d}"
        for m in range(ITEMS):
            cents = rng.randrange(1, 5_000_000)
            quotes.append([market, codes[k], f"Item {m:03d}", "kg", f"{cents // 100}.{cents % 100:02d}", "item"])
        quotes.append([market, codes[k], "Salary, net", "month", f"{rng.randrange(500_000, 9_000_000)}.00", "salary"])
    _write(paths["basket"], ["# basket"], ["country", "currency", "item", "unit", "amount", "role"], quotes)

    years, m1 = [], 100_000
    for t in range(rows):
        m1 = max(1, m1 + round(rng.gauss(800, 1000)))
        gdp = 2_000_000 + t + rng.randrange(200)
        years.append([str(1000 + t), f"{m1 // 1000}.{m1 % 1000:03d}", f"{gdp // 1000}.{gdp % 1000:03d}",
                      str(150_000_000 + 1_000 * t), f"Event {t}, noted" if t % 50 == 0 else ""])
    _write(paths["series"], ["# scale=1e9"], ["year", "m1", "gdp", "population", "events"], years)
    return paths


def _median_ms(run, repeat: int) -> float:
    """The median wall time of ``run()``, timed as ``monmin.cli.main`` runs a command: collector off."""
    run()  # warm-up: caches, lazy imports
    times = []
    for _ in range(repeat):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return round(statistics.median(times) * 1000, 3)


def stage_times(paths: dict[str, Path], repeat: int) -> dict[str, float]:
    snapshots, _ = ingest.load_economies(paths["economies"])
    baskets, _ = ingest.load_basket(paths["basket"])
    aggregate, _ = ingest.load_series(paths["series"])
    minutes = series.series_in_monmin(aggregate)
    extrema = series.detect_extrema(minutes)
    cms = {b.currency.code: core.MonMinValue(b.currency, Decimal("0.01")) for b in baskets}

    def write(build):
        return lambda: report.write_table(*build(), io.StringIO())

    stages = {
        "load_economies": lambda: ingest.load_economies(paths["economies"]),
        "load_economies_dirty": lambda: ingest.load_economies(paths["economies_dirty"]),
        "load_basket": lambda: ingest.load_basket(paths["basket"]),
        "load_series": lambda: ingest.load_series(paths["series"]),
        "write_table1": write(lambda: report.build_table1(snapshots)),
        "write_table4": write(lambda: report.build_table4(baskets, cms)),
        "write_basket_listing": write(lambda: report.build_basket_listing(baskets, cms)),
        "write_percent_listing": write(lambda: report.build_percent_listing(baskets)),
        "write_table5": write(lambda: report.build_table5(aggregate, minutes)),
        "write_plot_data": lambda: report.write_plot_data(aggregate, io.StringIO(), extrema, minutes),
    }
    return {name: _median_ms(run, repeat) for name, run in stages.items()}


def _process(code: str | None, *argv: str) -> list[float]:
    """When a ``python -c code`` child started, the times it wrote to the pipe, and when it ended, on one clock.

    With no code the child is ``python -m monmin.cli argv``, which writes no times.
    """
    read, write = os.pipe()
    args = ["-c", code, str(write)] if code else ["-m", "monmin.cli"]
    with open(read, "rb") as pipe:
        try:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, *args, *argv], stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, pass_fds=(write,))
        finally:
            os.close(write)
        child.wait()
        end = time.perf_counter()
        marks = [float(mark) for mark in pipe.read().split()]
    if child.returncode != 0:
        raise SystemExit(f"a timed process exited with {child.returncode}")
    return [start, *marks, end]


def process_times(count: int) -> dict[str, float]:
    """The median parts of ``count`` ``report --table 1`` processes, each run after a bare interpreter and ``--help``."""
    parts: dict[str, list[float]] = {name: [] for name in ("bare", "help", "whole", "import", "command", "exit")}
    for _ in range(count):
        start, end = _process("pass")
        parts["bare"].append(end - start)
        start, end = _process(None, "--help")
        parts["help"].append(end - start)
        start, imported, returned, end = _process(_WRAPPER, *TABLE1)
        parts["whole"].append(end - start)
        parts["import"].append(imported - start)
        parts["command"].append(returned - imported)
        parts["exit"].append(end - returned)
    return {f"process_{name}": round(statistics.median(times) * 1000, 3) for name, times in parts.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--rows", type=int, default=1000, help="data rows per input file")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per stage")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rows < 1 or args.repeat < 1:
        parser.error("--rows and --repeat must be at least 1")
    with tempfile.TemporaryDirectory() as work:
        times = stage_times(write_inputs(Path(work), args.rows, args.seed), args.repeat)
    times.update(process_times(args.repeat))
    for name, ms in times.items():
        print(f"{name:<22} {ms:>10.3f} ms")
    print(json.dumps({"rows": args.rows, "repeat": args.repeat, "seed": args.seed, "median_ms": times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
