"""A mutation probe: which refusals and conditions of a module does the tier-1 suite pin?

Run from the root of a checkout, with pytest and the test dependencies installed:

    python tools/mutants.py --module src/monmin/series.py --sample 2
    python tools/mutants.py --module src/monmin/ingest.py --module src/monmin/core.py

A mutant changes one site of one module, in one of five ways:

* ``drop k of and/or``: operand ``k`` (counted from 1) of an ``and`` or
  ``or`` is removed, so the others decide alone;
* ``skip if``: the test of an ``if`` (or ``elif``) whose body raises
  becomes ``False``, so the refusal never happens;
* ``swap <``: one comparison operator becomes its neighbour, ``<`` and
  ``<=``, ``>`` and ``>=``, or ``==`` and ``!=``, so a boundary moves or a
  test turns round (each operator of a chain is its own site);
* ``swap +``: one binary ``+`` becomes ``-`` or ``-`` becomes ``+``, or
  ``*`` becomes ``/`` or ``/`` becomes ``*``;
* ``drop not``: a ``not`` is removed and its operand decides unnegated.

An operator that the tokenizer does not see on its own, such as one inside
an f-string on Python before 3.12, is no site.

Every site of every ``--module`` is a mutant (by default every module
under ``src/``), or ``--sample N`` of them, drawn with the fixed
``SEED`` so that a sample is the same on every run.  Each mutant runs
the tier-1 suite with ``-x -q -p no:cacheprovider`` and Hypothesis
seeded with ``SEED``, so that every run draws the same generated
examples, in a temporary copy of the checkout, never in the checkout
itself; two copies (one where there is a single CPU) run mutants side by
side.  The unmutated suite runs once in each copy first: a killed
mutant means something only where it passes, so the probe exits 1
before any mutant when it fails.  A mutant is killed when the suite
fails on it (or runs past ten minutes) and survives when the whole suite
passes.  One line is printed per mutant, ``module:line``, the mutation,
killed or survived and the seconds it took, then a summary.  Only the
stdlib is used.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import queue
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # of --sample, and of Hypothesis, so that the unmutated suite and every mutant see the same examples
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed", str(SEED)]
TIMEOUT = 600  # seconds; a suite run that takes longer (a mutant that loops) counts as killed
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".work",
                                     "*.egg-info")


# By ast type: the text of each operator that is swapped, and the text it becomes.
_SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
          ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
          ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}


class Mutant(NamedTuple):
    module: str  # path relative to the checkout
    line: int
    mutation: str
    start: int  # byte offsets of the replaced text in the module's UTF-8 source
    stop: int
    text: str  # the text put in its place

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text.encode("utf-8") + source[self.stop:]


def _segment(starts: list[int], node: ast.AST) -> tuple[int, int]:
    """The byte span of ``node``, from the byte offset of each line's start (``ast`` columns count UTF-8 bytes)."""
    return starts[node.lineno - 1] + node.col_offset, starts[node.end_lineno - 1] + node.end_col_offset


def _operators(source: bytes, starts: list[int]) -> list[tuple[int, str]]:
    """The byte offset and text of every operator token of the module, in source order."""
    found = []
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type == tokenize.OP:
            row, col = token.start  # col counts characters of the line
            found.append((starts[row - 1] + len(token.line[:col].encode("utf-8")), token.string))
    return found


def sites(module: str) -> list[Mutant]:
    """Every mutant of one module, in source order."""
    source = (ROOT / module).read_bytes()
    starts, total = [], 0
    for line in source.splitlines(keepends=True):
        starts.append(total)
        total += len(line)
    operators = _operators(source, starts)
    found = []

    def swap(node: ast.AST, op: ast.AST, left: ast.AST, right: ast.AST) -> None:
        """The mutant that swaps ``op``, the first token of its text between ``left`` and ``right``."""
        if type(op) not in _SWAPS:
            return
        text, swapped = _SWAPS[type(op)]
        after, before = _segment(starts, left)[1], _segment(starts, right)[0]
        for offset, token in operators:
            if after <= offset < before and token == text:
                found.append(Mutant(module, node.lineno, f"swap {text}", offset, offset + len(text), swapped))
                return

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BoolOp):
            word = "and" if isinstance(node.op, ast.And) else "or"
            spans = [_segment(starts, value) for value in node.values]
            start, stop = _segment(starts, node)
            for k in range(len(spans)):
                kept = [source[a:b].decode("utf-8") for i, (a, b) in enumerate(spans) if i != k]
                found.append(Mutant(module, node.lineno, f"drop {k + 1} of {word}", start, stop,
                                    "(" + f" {word} ".join(kept) + ")"))
        elif isinstance(node, ast.If) and any(isinstance(statement, ast.Raise) for statement in node.body):
            start, stop = _segment(starts, node.test)
            found.append(Mutant(module, node.lineno, "skip if", start, stop, "False"))
        elif isinstance(node, ast.Compare):
            for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators):
                swap(node, op, left, right)
        elif isinstance(node, ast.BinOp):
            swap(node, node.op, node.left, node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            start, stop = _segment(starts, node)
            operand_start, operand_stop = _segment(starts, node.operand)
            found.append(Mutant(module, node.lineno, "drop not", start, stop,
                                "(" + source[operand_start:operand_stop].decode("utf-8") + ")"))
    return sorted(found, key=lambda m: (m.start, m.mutation))


def suite(checkout: Path) -> bool:
    """Whether the tier-1 suite passes in ``checkout`` (False also when it runs past ``TIMEOUT``)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode between two mutants of one module
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    try:
        return subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def run(mutant: Mutant, checkout: Path) -> tuple[bool, float]:
    """Whether the suite kills ``mutant`` in ``checkout``, and the seconds it took; the module is restored after."""
    target = checkout / mutant.module
    original = target.read_bytes()
    began = time.perf_counter()
    target.write_bytes(mutant.apply(original))
    try:
        killed = not suite(checkout)
    finally:
        target.write_bytes(original)
    return killed, time.perf_counter() - began


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", action="append", help="path of a module in this checkout (repeatable)")
    parser.add_argument("--sample", type=int, default=None, help="run this many mutants, drawn with SEED")
    args = parser.parse_args(argv)
    # relative to the checkout, so that a mutant is written into a copy (ValueError for a path outside it)
    paths = [Path(module).resolve() for module in args.module] if args.module else (ROOT / "src").rglob("*.py")
    modules = sorted(str(path.relative_to(ROOT)) for path in paths)
    mutants = [mutant for module in modules for mutant in sites(module)]
    if args.sample is not None and args.sample < len(mutants):
        chosen = set(random.Random(SEED).sample(range(len(mutants)), args.sample))
        mutants = [mutant for i, mutant in enumerate(mutants) if i in chosen]
    jobs = max(1, min(2, os.cpu_count() or 1, len(mutants)))
    print(f"{len(mutants)} mutants of {len(modules)} module(s), {jobs} at a time", flush=True)
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as work, ThreadPoolExecutor(jobs) as pool:
        checkouts = [Path(shutil.copytree(ROOT, Path(work) / str(i), ignore=_NOT_COPIED)) for i in range(jobs)]
        if not all(pool.map(suite, checkouts)):
            print("the unmutated suite fails in a copy of this checkout; no mutant was run", file=sys.stderr)
            return 1
        free: queue.Queue[Path] = queue.Queue()
        for checkout in checkouts:
            free.put(checkout)

        def probe(mutant: Mutant) -> bool:
            checkout = free.get()
            try:
                killed, seconds = run(mutant, checkout)
            finally:
                free.put(checkout)
            print(f"{mutant.module}:{mutant.line}  {mutant.mutation}: {' '.join(mutant.text.split())[:80]}  "
                  f"{'killed' if killed else 'survived'}  {seconds:.1f}s", flush=True)
            return killed

        killed = sum(pool.map(probe, mutants))
    print(f"{len(mutants)} mutants: {killed} killed, {len(mutants) - killed} survived "
          f"in {time.perf_counter() - began:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
