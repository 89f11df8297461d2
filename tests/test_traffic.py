"""`scripts/traffic.py` on cheap subsets of the runtime traffic, each in a
fresh process (its trace must start before the package is imported). The
three runs are shared by the tests through module-scoped fixtures. The
script's copy of the experiment list is checked against the CLI's."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from dfscavity import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "traffic.py"
MODULES = sorted(p.name for p in (ROOT / "src" / "dfscavity").glob("*.py"))


def _traffic(*only):
    return subprocess.run([sys.executable, str(SCRIPT), "--only", *only],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)


@pytest.fixture(scope="module")
def narrow():
    return _traffic("cli:bell:json", "demo:01")


@pytest.fixture(scope="module")
def wider():
    return _traffic("cli:bell:json", "demo:01", "cli:teleport:json")


@pytest.fixture(scope="module")
def unknown():
    return _traffic("no-such-run")


def _never_run(stdout: str) -> dict[str, int]:
    """Module file name -> its count of executable lines never run."""
    counts = {}
    for line in stdout.splitlines():
        if line.startswith("dfscavity/"):
            name, _, rest = line.partition(": ")
            counts[name.removeprefix("dfscavity/")] = int(rest.split()[0])
    return counts


def test_subset_names_every_module(narrow, wider):
    assert narrow.returncode == 0, narrow.stderr
    lines = narrow.stdout.splitlines()
    assert lines[:2] == ["run cli:bell:json: exit 0", "run demo:01_one_step_entanglement: exit 0"]
    counts = _never_run(narrow.stdout)
    assert sorted(counts) == MODULES
    assert lines[-1] == f"total: {sum(counts.values())} executable lines never run"
    assert counts["__init__.py"] == 0  # the trace starts before the package import

    # one more run reaches more lines of its modules, and never fewer
    assert wider.returncode == 0, wider.stderr
    more = _never_run(wider.stdout)
    assert more["bell_teleport.py"] < counts["bell_teleport.py"]
    assert all(more[m] <= counts[m] for m in MODULES)


def test_unknown_run_name_exits_two(unknown):
    assert unknown.returncode == 2
    assert "no run matches" in unknown.stderr


def test_single_valued_defaults_follow_the_run_statuses(narrow, wider):
    assert narrow.returncode == 0, narrow.stderr
    lines = narrow.stdout.splitlines()
    assert lines[0] == "run cli:bell:json: exit 0"
    # the section follows the two run lines
    title, _, count = lines[2].rpartition(": ")
    assert title == "parameters with a default that every traced call left at one value"
    section = lines[3:3 + int(count)]
    assert section and all(line.startswith("  ") for line in section)
    assert lines[3 + int(count)] == "dfscavity/__init__.py: 0 executable lines never run"
    assert any(line.startswith("  bell_teleport.bell_measure(seed) = None in ") for line in section)
    assert "  cli.parse_config(experiment) = 'bell' in 1 call" in section

    # a second experiment gives parse_config a second value, so it leaves the list
    assert "cli.parse_config(experiment)" not in wider.stdout


def test_experiment_list_matches_the_cli():
    # the script cannot import cli before its trace starts, so it lists the experiments
    # itself; an experiment missing from its copy would go untraced without a warning
    spec = importlib.util.spec_from_file_location("traffic", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.EXPERIMENTS == cli.EXPERIMENTS
