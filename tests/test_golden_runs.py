"""The benchmark executes ``tests/conftest.py`` in its own process to read ``golden_runs()``.

Whatever the conftest imports at module level is then loaded into the
benchmark's process and raises the peak RSS it reports for every child.
Hypothesis alone once raised ``paper-tables`` ``peak_rss_mb`` by half.
"""
import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).parent / "conftest.py"

# the way perfbench/workloads.py::_golden_runs loads it
LOAD = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("monmin_golden_conftest", {str(CONFTEST)!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
assert len(module.golden_runs()) == 7
print("hypothesis" in sys.modules)
"""


def test_loading_the_conftest_does_not_import_hypothesis():
    result = subprocess.run([sys.executable, "-c", LOAD], capture_output=True, text=True, check=True)
    assert result.stdout == "False\n", result.stderr
