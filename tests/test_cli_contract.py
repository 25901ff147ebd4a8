"""The CLI's contract, on argv drawn from each command's own click parameters.

Every input file is one of the four ``tests/fixtures/dirty_*.csv`` with
some of its lines kept, in any order, and perhaps one byte changed, so a
file may load cleanly, fail on a line, or not be the format its flag
names.  Each example runs in-process through ``cli.main(argv)``, and:

- the exit code is 0, 1 or 2, and stderr holds no traceback;
- exit 1 ends in a ``usage error:`` line;
- exit 2 ends in an ``error:`` or ``<path>:<line>: error:`` line;
- a value of a shared flag is refused alike by every command that takes it;
- a command that fails leaves an existing ``--out`` (and ``--plot-data``)
  byte for byte, and creates none that was absent.
"""
import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import click
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import FIXTURES
from monmin import cli
from test_cli import SHARED_FLAGS


def records(data: bytes) -> list[bytes]:
    """The file's lines, a quoted cell's lines kept together as one."""
    found = [b""]
    for line in data.splitlines(keepends=True):
        found[-1] += line
        if found[-1].count(b'"') % 2 == 0:
            found.append(b"")
    return found[:-1] if found[-1] == b"" else found


DIRTY = {kind: records((FIXTURES / f"dirty_{kind}.csv").read_bytes())
         for kind in ("economies", "rates", "basket", "series")}
INPUTS = {"--economies": "economies", "--rates": "rates", "--basket": "basket", "--series": "series"}
OUTPUTS = ("--out", "--plot-data")
KEPT = b"bytes an earlier run left\n"
ERROR = re.compile(r"(?:.*:\d+: )?error: ")

# Bounded numbers, two thirds of them ordinary positive ones; the rest are zero and the signs,
# the input range's edges and just past them, and texts that are not finite numbers.
ORDINARY = st.decimals(min_value="0.001", max_value=10**6, places=3).map(str)
NUMBERS = st.one_of(
    ORDINARY, ORDINARY,
    st.sampled_from(["0", "-1", "0E-200000", "1E-99999", "9.99E+99999", "1E+100000", "1E-100000",
                     "NaN", "-Infinity", "abc", "", " 2 "]),
)
CODES = st.sampled_from(["USD", "EUR", "GBP", "JPY", "usd", "U$D", "", "EURO"])
CM_ENTRIES = st.lists(
    st.one_of(st.builds("{}={}".format, CODES, NUMBERS), st.sampled_from(["USD", "=1", "USD="])),
    min_size=1, max_size=3,
)
CONFIGS = st.one_of(
    st.fixed_dictionaries({}, optional={
        "tetcy": st.one_of(NUMBERS, st.just(True)), "format": st.sampled_from(["csv", "text", "xml"]),
        "decimals": st.sampled_from([0, 3, -1, 1001, "two"]), "out": st.just("ignored.csv"),
    }).map(json.dumps),
    st.sampled_from(["nope", "[1, 2]", None]),  # None: the file is absent
)


@st.composite
def input_file(draw, kind: str) -> bytes:
    """A dirty fixture: each preamble line kept or not, the header, some records in any order, maybe a byte changed."""
    lines = DIRTY[kind]
    header = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
    kept = [line for line in lines[:header] if draw(st.booleans())] + [lines[header]]
    data = b"".join(kept + draw(st.lists(st.sampled_from(lines[header + 1:]), max_size=4)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.sampled_from([b",", b'"', b"\n", b"#", b"-", b"0", b"E", b" ", b"\xe7"]))
        data = data[:at] + byte + data[at + 1:]
    return data


def option_values(draw, param, work: Path, files: dict) -> list[str]:
    """The values of one option, drawn by what the option takes; an input or output is a path under ``work``."""
    flag = param.opts[0]
    if flag in INPUTS:
        kind = draw(st.sampled_from([INPUTS[flag]] * 3 + sorted(DIRTY)))  # mostly its own format
        path = work / f"{flag[2:]}.csv"
        path.write_bytes(draw(input_file(kind)))
        return [str(path)]
    if flag in OUTPUTS:
        path = work / f"{flag[2:]}.csv"
        if draw(st.booleans()):
            path.write_bytes(KEPT)
        files[flag] = path
        return [str(path)]
    if flag == "--config":
        text, path = draw(CONFIGS), work / "config.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        return [str(path)]
    if param.multiple:
        return draw(CM_ENTRIES)
    if isinstance(param.type, click.Choice):
        return [draw(st.sampled_from([*param.type.choices, "xml"]))]
    if isinstance(param.type, click.types.IntParamType):
        return [str(draw(st.integers(-2, 1001)))]
    if flag == "--currency":
        return [draw(CODES)]
    if flag in ("--country", "--item"):
        return [draw(st.sampled_from(["Good", "After", "North\nLand", "Nowhere", "Gold"]))]
    return [draw(NUMBERS)]


@st.composite
def invocations(draw, work: Path):
    """argv for a command with its required options and maybe each other one; its output paths; each option's args."""
    name = draw(st.sampled_from(sorted(cli.cli.commands)))
    files, given = {}, {}
    for param in cli.cli.commands[name].params:
        if not (param.required or draw(st.booleans())):
            continue
        flag = param.opts[0]
        given[flag] = [flag] if getattr(param, "is_flag", False) else [
            arg for value in option_values(draw, param, work, files) for arg in (flag, value)
        ]
    return [name, *(arg for part in given.values() for arg in part)], files, given


def run(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and stderr, with stdout captured and dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def refusal(command: str, pairs: list[str]) -> str | None:
    """The usage error that ``command`` gives for these flag values alone; None when it refuses none of them.

    The flags come first on the command line, so click checks them before
    it finds any required option missing.
    """
    code, err = run([command, *pairs])
    last = err.splitlines()[-1]
    assert code == 1 and last.startswith("usage error: "), (command, pairs, err)
    return None if last.startswith("usage error: Missing option") else last


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_keeps_the_cli_contract(data):
    with tempfile.TemporaryDirectory() as work, mock.patch.dict(os.environ):
        os.environ.pop("MONMIN_TETCY", None)
        argv, files, given = data.draw(invocations(Path(work)), label="argv")
        before = {flag: path.read_bytes() if path.exists() else None for flag, path in files.items()}
        code, err = run(argv)
        lines = err.splitlines()
        assert code in (0, 1, 2) and "Traceback" not in err, err
        if code == 1:
            assert lines[-1].startswith("usage error: "), err
        if code == 2:
            assert ERROR.match(lines[-1]), err
        if code != 0:
            for flag, path in files.items():
                assert (path.read_bytes() if path.exists() else None) == before[flag], flag
        for flag in given.keys() & SHARED_FLAGS.keys():
            assert len({refusal(command, given[flag]) for command in SHARED_FLAGS[flag]}) == 1, given[flag]
