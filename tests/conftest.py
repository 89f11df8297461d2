"""Shared fixtures: the gate caches cleared around a test, and the suite's one slow
child run, which starts as soon as collection ends.

`test_pytest_config.py` checks the repository's pytest settings by running pytest
in a child process on a failing property test next to a passing one, which takes
about 2 s. When a selected test requests `failing_property_run`, the child starts
after collection, so it runs alongside the tests before that one; the fixture
waits for it. A child that no test read (the run stopped early) is ended at the
end of the session.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

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

_CHILD = pytest.StashKey[tuple[subprocess.Popen, Path]]()


def _start_child() -> tuple[subprocess.Popen, Path]:
    """pytest with the repository's settings on FAILING_AND_PASSING, in a new directory."""
    where = Path(tempfile.mkdtemp(prefix="failing-property-run-"))
    (where / "test_pair.py").write_text(FAILING_AND_PASSING)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(where), "test_pair.py"],
        cwd=where, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc, where


def pytest_collection_finish(session):
    if not session.config.option.collectonly and any(
            "failing_property_run" in item.fixturenames for item in session.items):
        session.stash[_CHILD] = _start_child()


def pytest_sessionfinish(session):
    proc, where = session.stash.get(_CHILD, (None, None))
    if proc is not None:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(where, ignore_errors=True)


@pytest.fixture(scope="session")
def failing_property_run(request) -> tuple[int, str]:
    """(exit code, stdout and stderr) of the child pytest run on FAILING_AND_PASSING."""
    proc, _ = request.session.stash[_CHILD]  # started by pytest_collection_finish
    try:
        output, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    return proc.returncode, output


@pytest.fixture
def fresh_gate_cache():
    """The lifted gates and the CNOT convention search built again from the gate functions
    during the test, and once more after it, so a patched gate is lifted and searched and
    never outlives the test."""
    from dfscavity import gates

    gates._gate_atomic.cache_clear()
    gates.convention_search.cache_clear()
    yield
    gates._gate_atomic.cache_clear()
    gates.convention_search.cache_clear()
