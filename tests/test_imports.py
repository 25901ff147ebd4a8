"""The import budget: a command loads only the monmin modules it runs, each in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monmin
from test_package import PUBLIC

FIXTURES = Path(__file__).parent / "fixtures"
BARE = ["monmin", "monmin.cli", "monmin.errors"]
# The child runs cli.main(argv) with its output captured, then prints the exit code and every monmin module loaded.
_MAIN = """
import contextlib, io, sys
from monmin import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.split(".")[0] == "monmin"))
"""


def child(code: str, *argv: str) -> list[str]:
    """The words a fresh ``python -c code argv`` on the sources under test prints."""
    env = {key: value for key, value in os.environ.items() if key != "MONMIN_TETCY"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(monmin.__file__).parent.parent),
                                                      os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, *argv], stdin=subprocess.DEVNULL, env=env,
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout.split()


@pytest.mark.parametrize("argv, want_code", [
    (["--help"], "0"),
    (["report", "--help"], "0"),
    (["report", "--table", "1"], "1"),  # a usage error: no --economies
    (["convert", "--amount", "1", "--cm", "0"], "1"),  # a flag value refused for its sign
])
def test_help_and_usage_errors_load_no_arithmetic(argv, want_code):
    assert child(_MAIN, *argv) == [want_code, *BARE]


@pytest.mark.parametrize("argv", [
    ["report", "--table", "1", "--economies", str(FIXTURES / "economies_table1.csv")],
    ["convert", "--amount", "1447", "--cm", "0.121001"],
])
def test_commands_without_a_series_do_not_load_it(argv):
    code, *loaded = child(_MAIN, *argv)
    assert code == "0"
    assert "monmin.core" in loaded
    assert "monmin.series" not in loaded and "monmin._ingest_blocks" not in loaded


def test_table5_loads_series():
    code, *loaded = child(_MAIN, "report", "--table", "5", "--series", str(FIXTURES / "series_us.csv"))
    assert code == "0"
    assert "monmin.series" in loaded


def test_star_import_binds_exactly_the_public_names():
    bound = child("before = set(dir()) | {'before'}\nfrom monmin import *\nprint(*sorted(set(dir()) - before))")
    assert bound == sorted(PUBLIC)
