"""Run the tier-1 test suite and check its set of failures.

    python3 scripts/tier1.py

Runs `python -m pytest -q --continue-on-collection-errors` from the
repository root with `src` prepended to PYTHONPATH, prints the set of failed
or errored tests, and exits 0 only when that set is exactly EXPECTED_FAILURES.
Criterion 8 fails by design: it records a real property of the exact model
(see README, "Install and test").
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURES = {"tests/test_acceptance.py::test_criterion_08_full_model_convergence"}


def failed_tests(output: str) -> set[str]:
    """Node ids from the `FAILED <id> - ...` and `ERROR <id> - ...` summary lines."""
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "(no output)"
    failed = failed_tests(proc.stdout)
    print(summary)
    print("failed:", sorted(failed))
    # pytest exits 1 when tests failed; any other code means it could not run them
    if proc.returncode == 1 and failed == EXPECTED_FAILURES:
        print("tier-1 OK: exactly the expected failure")
        return 0
    print(f"tier-1 NOT OK: expected exactly {sorted(EXPECTED_FAILURES)} (pytest exit {proc.returncode})")
    if proc.returncode not in (0, 1):
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
