"""Capture the golden default-config reports the benchmark checks against.

    python3 perfbench/capture_goldens.py

Runs `python -m dfscavity.cli <experiment> --seed GOLDEN_SEED --out ...` for
all eight experiments and writes perfbench/golden/<experiment>.json. Run it
only when a change of the reports is intended, and say why in the change.
"""

from __future__ import annotations

import subprocess
import sys

from checks import GOLDEN_DIR, expected_exit_code
from run import ROOT, package_env
from workloads import EXPERIMENTS, GOLDEN_SEED


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    env = package_env()
    for exp in EXPERIMENTS:
        out = GOLDEN_DIR / f"{exp}.json"
        code = subprocess.run([sys.executable, "-m", "dfscavity.cli", exp, "--seed", str(GOLDEN_SEED),
                               "--out", str(out)], env=env, cwd=ROOT, stderr=subprocess.DEVNULL).returncode
        if code != expected_exit_code(exp):
            print(f"{exp}: exit code {code}, expected {expected_exit_code(exp)}", file=sys.stderr)
            return 1
        print(f"{exp}: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
