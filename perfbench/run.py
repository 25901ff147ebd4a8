"""End-to-end benchmark of the ``monmin`` CLI, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload series-long --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's inputs from the seed, then acts as
a single closed-loop client: it runs ``python -m monmin.cli`` on the
checkout's ``src/`` one invocation at a time, in passes over the
workload's invocations, until ``--seconds`` have been spent, and checks
every output.  The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every output was correct.

``--trace 0`` reports the end-to-end metrics, with every time divided by
a calibration loop run between the invocations, and prints the raw wall
times beside them.  ``--trace 1`` instead
runs the same invocations in-process through ``monmin.cli.main``,
alternating untraced and traced passes, and reports per-layer self
times and counts; spans are written to ``perfbench/.work/``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
SETUP_REPEATS = 11
IMPORT_REPEATS = 5
CALIBRATION_SHARE = 0.10  # calibration time per second of measured invocations
# setup_s is given in seconds of a machine on which calibrate() takes this long
REFERENCE_CALIBRATION_S = 0.010


def calibrate() -> float:
    """Time a fixed pure-Python loop of about 10 ms: the machine's speed at this moment."""
    start = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(60_000):
        total += (i * i) % 7
        table[i & 1023] = total
    return perf_counter() - start


def calibrate_after(elapsed: float) -> list[float]:
    """Calibration samples in proportion to the time just measured."""
    samples = [calibrate()]
    while sum(samples) < CALIBRATION_SHARE * elapsed:
        samples.append(calibrate())
    return samples


class Client:
    """Runs ``python -m monmin.cli`` on the checkout's sources, one process at a time."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "MONMIN_TETCY"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def run(self, argv: list[str], python_args=("-m", "monmin.cli")):
        """Return exit code, stdout, stderr, wall seconds and peak RSS in MB of one process."""
        with open(self.work / "stdout", "w+b") as out, open(self.work / "stderr", "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *python_args, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=self.work)
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give a running max
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read(), elapsed, usage.ru_maxrss / 1024


class Tally:
    """Invocations attempted and failed, with the first few problems kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def _help_problems(code: int, out: bytes) -> list[str]:
    return [] if code == 0 and out.startswith(b"Usage:") else [f"--help: exit {code}, stdout {out[:40]!r}"]


def _keep_going(start: float, last_pass: float, seconds: float) -> bool:
    return perf_counter() - start + last_pass <= seconds


def timed_run(workload: workloads.Workload, seconds: float, client: Client, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics, measured with subprocesses and no tracing.

    Returns the metrics to report and, apart, the raw wall-time figures.
    Those follow the machine's speed, which on a shared host swings by a
    third within a minute, so they are printed but not reported: every
    reported time is divided by the calibration loop run around it.
    """
    code, out, *_ = client.run(["--help"])  # warm-up: fills the bytecode cache
    tally.record(_help_problems(code, out))
    calibration = calibrate_after(0.0)
    setup = []
    for _ in range(SETUP_REPEATS):
        code, out, _, elapsed, _ = client.run(["--help"])
        calibration += calibrate_after(elapsed)
        tally.record(_help_problems(code, out))
        setup.append(elapsed)
    setup_ref = statistics.median(setup) / statistics.fmean(calibration) * REFERENCE_CALIBRATION_S

    # Each pass is divided by the mean of the calibration samples taken
    # between its invocations and just before it.  The mean, not the median:
    # an invocation's wall time adds up its slow moments as well.
    passes, relative, pass_p50, pass_p50_rel, rss = [], [], [], [], []
    calibration = calibration[-1:]
    start = perf_counter()
    last_pass = 0.0
    while not passes or _keep_going(start, last_pass, seconds):
        pass_start = perf_counter()
        latencies = []
        for inv in workload.invocations:
            for path in inv.outputs:
                path.unlink(missing_ok=True)
            code, out, err, elapsed, peak_mb = client.run(inv.argv)
            calibration += calibrate_after(elapsed)
            tally.record(inv.check(code, out, err))
            latencies.append(elapsed)
            rss.append(peak_mb)
        speed = statistics.fmean(calibration)
        passes.append(sum(latencies))
        relative.append(passes[-1] / speed)
        # the median of each pass's median: a pass of two unequal invocations
        # would otherwise put the run's median between two extreme samples
        pass_p50.append(statistics.median(latencies))
        pass_p50_rel.append(pass_p50[-1] / speed)
        calibration = calibration[-1:]
        last_pass = perf_counter() - pass_start

    wall = statistics.median(passes)
    print(f"passes={len(passes)} invocations={len(rss)} pass_rows={workload.pass_rows()}", file=sys.stderr)
    metrics = {
        "wall_rel": (statistics.median(relative), "ratio"),
        "invocation_p50_rel": (statistics.median(pass_p50_rel), "ratio"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (setup_ref, "s"),
    }
    raw = {
        "wall_s": (wall, "s"),
        "rows_per_s": (workload.pass_rows() / wall, "rows/s"),
        "invocation_p50_ms": (statistics.median(pass_p50) * 1000, "ms"),
        "setup_raw_s": (statistics.median(setup), "s"),
    }
    return metrics, raw


def _in_process(cli, inv: workloads.Invocation) -> tuple[int, bytes, bytes, float]:
    for path in inv.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = cli.main(list(inv.argv))
        elapsed = perf_counter() - start
    return code, out.getvalue().encode(), err.getvalue().encode(), elapsed


def _import_seconds(client: Client, tally: Tally) -> float:
    """Fresh-interpreter import of monmin.cli minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for samples, code_text in ((bare, "pass"), (full, "import monmin.cli")):
            code, _, err, elapsed, _ = client.run([], python_args=("-c", code_text))
            tally.record([] if code == 0 else [f"python -c {code_text!r}: exit {code}: {err[-200:]!r}"])
            samples.append(elapsed)
    return statistics.median(full) - statistics.median(bare)


def traced_run(workload: workloads.Workload, seconds: float, client: Client, tally: Tally, spans_path: Path) -> dict:
    """Per-layer metrics from in-process passes, alternating untraced and traced."""
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("MONMIN_TETCY", None)
    import monmin
    import monmin.cli as cli

    if Path(monmin.__file__).resolve().parent != ROOT / "src" / "monmin":
        raise SystemExit(f"imported monmin from {monmin.__file__}, not from {ROOT / 'src'}")
    import_s = _import_seconds(client, tally)

    untraced, traced, tracers = [], [], []
    start = perf_counter()
    last_pair = 0.0
    while not traced or _keep_going(start, last_pair, seconds):
        pair_start = perf_counter()
        tracer = spans.Tracer(workload.rows)
        sides = [(untraced, None), (traced, tracer)]
        if len(traced) % 2:
            sides.reverse()  # alternate which side runs first
        for timings, hook in sides:
            total = 0.0
            for inv in workload.invocations:
                with spans.installed(hook, monmin) if hook else nullcontext():
                    code, out, err, elapsed = _in_process(cli, inv)
                tally.record(inv.check(code, out, err))
                total += elapsed
            timings.append(total)
        tracers.append(tracer)
        last_pair = perf_counter() - pair_start
    spans.write_spans(spans_path, tracers)
    print(f"pairs={len(traced)} spans={sum(len(t.spans) for t in tracers)} -> {spans_path}", file=sys.stderr)

    per_pass = [_layer_metrics(tracer) for tracer in tracers]
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def _layer_metrics(tracer: spans.Tracer) -> dict:
    own = tracer.self_times()
    counts = tracer.counts
    metrics = {"cli.main.self_s": (own.get("cli.main", 0.0), "s")}
    load_s = 0.0
    for loader in spans.TRACED["ingest"]:
        name = f"ingest.{loader}"
        load_s += own.get(name, 0.0)
        metrics[f"{name}.self_s"] = (own.get(name, 0.0), "s")
        if loader != "load_rates":
            metrics[f"{name}.rows_accepted"] = (counts[f"{name}.rows_accepted"], "count")
    metrics["ingest.load_economies.rows_rejected"] = (counts["ingest.load_economies.rows_rejected"], "count")
    metrics["ingest.rows_per_s"] = (counts["ingest.rows_scanned"] / load_s if load_s else 0.0, "rows/s")
    for name in ("core.compute_cm", "core.to_monmin", "series.series_in_monmin"):
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    metrics["core.percent_of_salary.calls"] = (counts["core.percent_of_salary.calls"], "count")
    metrics["series.detect_extrema.self_s"] = (own.get("series.detect_extrema", 0.0), "s")
    metrics["series.detect_extrema.points"] = (counts["series.detect_extrema.points"], "count")
    for table in ("1", "2", "3", "4", "4b", "5"):
        metrics[f"report.build_table{table}.self_s"] = (own.get(f"report.build_table{table}", 0.0), "s")
    render_s = own.get("report.render_table", 0.0)
    cells = counts["report.render_table.cells"]
    metrics["report.render_table.self_s"] = (render_s, "s")
    metrics["report.render_table.cells"] = (cells, "count")
    metrics["report.render_table.cells_per_s"] = (cells / render_s if render_s else 0.0, "cells/s")
    metrics["report.emit_plot_data.self_s"] = (own.get("report.emit_plot_data", 0.0), "s")
    metrics["report.emit_plot_data.rows"] = (counts["report.emit_plot_data.rows"], "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [ROOT / "src" / "monmin" / "cli.py", ROOT / "tests" / "conftest.py", ROOT / "tests" / "golden"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        print(f"perfbench: not a monmin checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, work)  # not timed
        if workload.note:
            print(f"{args.workload}: {workload.note}", file=sys.stderr)
        client = Client(work)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, raw = traced_run(workload, args.seconds, client, tally, spans_path), {}
        else:
            metrics, raw = timed_run(workload, args.seconds, client, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    error_rate = tally.failed / tally.attempted
    for name, (value, unit) in [*metrics.items(), *raw.items(), ("error_rate", (error_rate, "ratio"))]:
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
