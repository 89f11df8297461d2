"""`scripts/traffic.py` on cheap subsets of the runtime traffic, each in a
fresh process (its trace must start before the package is imported)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "traffic.py"
MODULES = sorted(p.name for p in (ROOT / "src" / "dfscavity").glob("*.py"))


def _traffic(*only):
    return subprocess.run([sys.executable, str(SCRIPT), "--only", *only],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)


def _never_run(stdout: str) -> dict[str, int]:
    """Module file name -> its count of executable lines never run."""
    counts = {}
    for line in stdout.splitlines():
        if line.startswith("dfscavity/"):
            name, _, rest = line.partition(": ")
            counts[name.removeprefix("dfscavity/")] = int(rest.split()[0])
    return counts


def test_subset_names_every_module():
    done = _traffic("cli:bell:json", "demo:01")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["run cli:bell:json: exit 0", "run demo:01_one_step_entanglement: exit 0"]
    counts = _never_run(done.stdout)
    assert sorted(counts) == MODULES
    assert lines[-1] == f"total: {sum(counts.values())} executable lines never run"
    assert counts["__init__.py"] == 0  # the trace starts before the package import

    # one more run reaches more lines of its modules, and never fewer
    wider = _never_run(_traffic("cli:bell:json", "demo:01", "cli:teleport:json").stdout)
    assert wider["bell_teleport.py"] < counts["bell_teleport.py"]
    assert all(wider[m] <= counts[m] for m in MODULES)


def test_unknown_run_name_exits_two():
    done = _traffic("no-such-run")
    assert done.returncode == 2
    assert "no run matches" in done.stderr


def test_single_valued_defaults_follow_the_run_statuses():
    done = _traffic("cli:bell:json")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "run cli:bell:json: exit 0"
    title, _, count = lines[1].rpartition(": ")
    assert title == "parameters with a default that every traced call left at one value"
    section = lines[2:2 + int(count)]
    assert section and all(line.startswith("  ") for line in section)
    assert lines[2 + int(count)] == "dfscavity/__init__.py: 0 executable lines never run"
    assert any(line.startswith("  bell_teleport.bell_measure(seed) = None in ") for line in section)
    assert "  cli.parse_config(experiment) = 'bell' in 1 call" in section

    # a second experiment gives parse_config a second value, so it leaves the list
    wider = _traffic("cli:bell:json", "cli:teleport:json").stdout
    assert "cli.parse_config(experiment)" not in wider
