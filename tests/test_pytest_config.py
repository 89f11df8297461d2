"""The repository's pytest settings let a failing property test report like any
other: the suite goes on to the tests after it.

Hypothesis reports a failing example through `hypothesis.extra._patching`,
which imports `libcst` and, through it, `mypy_extensions.TypedDict`. That
import warns (DeprecationWarning), and `filterwarnings = ["error"]` alone turned
it into an exception inside a pytest hook, so the run stopped at INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_AND_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING_AND_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output[-2000:]
    assert proc.returncode == 1
