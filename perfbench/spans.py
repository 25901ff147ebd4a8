"""In-memory spans around monmin's public functions, wrapped from outside.

The benchmark swaps each traced function for a wrapper in every module
that holds a reference to it (``cli`` and ``report`` import names from
``core`` and ``series``), and puts the originals back afterwards.  Only
module-boundary calls are wrapped; per-cell helpers such as
``format_cell`` are not, and cell and row counts are taken from the
values the wrapped calls receive and return.
"""
from __future__ import annotations

import csv
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "ingest": ("load_economies", "load_basket", "load_series", "load_rates"),
    "core": ("compute_cm", "to_monmin", "percent_of_salary"),
    "series": ("series_in_monmin", "detect_extrema"),
    "report": ("build_table1", "build_table2", "build_table3", "build_table4", "build_table4b",
               "build_table5", "render_table", "emit_plot_data"),
}


class Tracer:
    """Spans of one traced pass: (name, start, end, parent index), plus counters."""

    def __init__(self, rows_of: dict[Path, int]):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self.rows_of = rows_of

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self, name, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - covered[index]
        return totals


def _count_load(tracer: Tracer, name: str, args, result) -> None:
    _, report = result
    tracer.counts[name + ".rows_accepted"] += report.records_accepted
    tracer.counts[name + ".rows_rejected"] += len(report.errors)
    tracer.counts["ingest.rows_scanned"] += tracer.rows_of.get(Path(args[0]), 0)


def _count_render(tracer: Tracer, name: str, args, result) -> None:
    spec, rows = args[0], args[1]
    tracer.counts[name + ".cells"] += len(rows) * len(spec.columns)


def _count_plot(tracer: Tracer, name: str, args, result) -> None:
    tracer.counts[name + ".rows"] += result.count("\n") - 1


def _count_points(tracer: Tracer, name: str, args, result) -> None:
    tracer.counts[name + ".points"] += len(args[0])


_COUNTERS = {
    **{f"ingest.{loader}": _count_load for loader in TRACED["ingest"]},
    "report.render_table": _count_render,
    "report.emit_plot_data": _count_plot,
    "series.detect_extrema": _count_points,
}


@contextmanager
def installed(tracer: Tracer, package):
    """Route every traced function through ``tracer``; restore the originals on exit."""
    modules = [package] + [getattr(package, layer) for layer in TRACED]
    swapped: list[tuple[object, str, object]] = []
    try:
        for layer, names in TRACED.items():
            home = getattr(package, layer)
            for name in names:
                original = getattr(home, name)
                wrapper = tracer.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            swapped.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(swapped):
            setattr(module, attr, original)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every span of every traced pass as CSV: pass, index, name, start, end, parent."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["pass", "index", "name", "start", "end", "parent"])
        for number, tracer in enumerate(tracers):
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                out.writerow([number, index, name, f"{start:.9f}", f"{end:.9f}", parent])
