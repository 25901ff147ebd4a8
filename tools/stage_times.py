"""Per-stage timings of monmin: the loaders and the table writer in-process, and whole processes.

Run from the root of a checkout, with that checkout's ``src`` importable:

    PYTHONPATH=src python tools/stage_times.py --rows 100000 --repeat 7 --seed 1

The inputs are the benchmark's own: ``perfbench/workloads.py`` writes the
``economies-large``, ``baskets-wide`` and ``series-long`` files for the
seed into a temporary directory, removed at the end, with ``--rows`` data
rows in each file (the baskets: whole currency contexts of 401 rows, at
least two).  At ``--rows 100000`` the two economies files and both
``baskets-wide`` files are the bytes the benchmark writes for that seed.
Each stage runs ``--repeat`` times after one untimed warm-up, and the
median wall time is printed in milliseconds, one line per stage, followed
by one JSON object with the same figures.  The cyclic garbage collector is
off during each timed run, as ``monmin.cli.main`` has it while a command
runs; a library caller with the collector on also pays its passes over
the values already loaded.  Stages:

* ``load_economies``: the economies file, with a ``# scale=`` line, comment
  and blank lines and quoted names; ``load_economies_dirty``: a copy with
  one bad row in a hundred, of six kinds (the loader reports them and
  returns nothing);
* ``load_basket``: 400 items in five units plus a salary row per currency
  context;
* ``load_series``: one year per row, scaled, some with events;
* ``write_table1``, ``write_table4``, ``write_basket_listing``,
  ``write_percent_listing``, ``write_table5``: build the table from the
  loaded values and write it as CSV into a file; the basket tables take
  their minute values from the baskets' own economies file, as ``monmin
  basket --economies`` does;
* ``write_plot_data``: the series' plot data, with its extrema marked,
  written as CSV into a file.

Each file is opened as ``--out`` opens its temporary file, a text file in
UTF-8 with no newline translation, in the temporary directory.

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

Only the stdlib, ``monmin`` and ``perfbench/`` are used.  The numbers are
for comparing two checkouts on one machine, by running this script on each
in turn.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

from monmin import core, ingest, report, series

ROOT = Path(__file__).resolve().parent.parent
TABLE1 = ["report", "--table", "1", "--economies", str(ROOT / "tests" / "fixtures" / "economies_table1.csv")]
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


def build_inputs(work: Path, rows: int, seed: int) -> None:
    """Write the benchmark's files for ``seed`` into ``work/<workload>``, ``rows`` data rows each."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    contexts = max(2, math.ceil(rows / (workloads.ITEMS + 1)))  # a context is its items and a salary row
    with mock.patch.multiple(workloads, ECONOMIES=rows, CONTEXTS=contexts, YEARS=rows, SAMPLES=min(rows, 200)):
        for name in ("economies-large", "baskets-wide", "series-long"):
            (work / name).mkdir()
            workloads.build(name, seed, ROOT, work / name)


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


def stage_times(work: Path, repeat: int) -> dict[str, float]:
    large, wide, out = work / "economies-large", work / "baskets-wide", work / "out.csv"
    economies, basket, yearly = large / "economies.csv", wide / "basket.csv", work / "series-long" / "series.csv"
    snapshots, _ = ingest.load_economies(economies)
    baskets, _ = ingest.load_basket(basket)
    aggregate, _ = ingest.load_series(yearly)
    minutes = series.series_in_monmin(aggregate)
    extrema = series.detect_extrema(minutes)
    cms = {e.currency.code: core.compute_cm(e) for e in ingest.load_economies(wide / "economies.csv")[0]}

    def write(emit):
        def run():
            with open(out, "w", encoding="utf-8", newline="") as sink:
                emit(sink)
        return run

    def table(build):
        return write(lambda sink: report.write_table(*build(), sink))

    stages = {
        "load_economies": lambda: ingest.load_economies(economies),
        "load_economies_dirty": lambda: ingest.load_economies(large / "economies_dirty.csv"),
        "load_basket": lambda: ingest.load_basket(basket),
        "load_series": lambda: ingest.load_series(yearly),
        "write_table1": table(lambda: report.build_table1(snapshots)),
        "write_table4": table(lambda: report.build_table4(baskets, cms)),
        "write_basket_listing": table(lambda: report.build_basket_listing(baskets, cms)),
        "write_percent_listing": table(lambda: report.build_percent_listing(baskets)),
        "write_table5": table(lambda: report.build_table5(aggregate, minutes)),
        "write_plot_data": write(lambda sink: report.write_plot_data(aggregate, sink, extrema, minutes)),
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
    if args.rows < 3 or args.repeat < 1:
        parser.error("--rows must be at least 3 (the series' extrema need three years), --repeat at least 1")
    with tempfile.TemporaryDirectory() as work:
        build_inputs(Path(work), args.rows, args.seed)
        times = stage_times(Path(work), args.repeat)
    times.update(process_times(args.repeat))
    for name, ms in times.items():
        print(f"{name:<22} {ms:>10.3f} ms")
    print(json.dumps({"rows": args.rows, "repeat": args.repeat, "seed": args.seed, "median_ms": times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
