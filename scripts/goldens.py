"""Check that every default-config report is byte-identical to its golden copy.

    python3 scripts/goldens.py

Runs `python -m dfscavity.cli <experiment> --seed 0` for all eight
experiments, writing each report into a temporary directory, and compares its
bytes with perfbench/golden/<experiment>.json. Prints `same` or `DIFF` per
experiment and exits 0 only when all eight are identical. This is the check
a pure refactor must pass; it writes nothing under perfbench/.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "perfbench" / "golden"
SEED = "0"

sys.path.insert(0, str(ROOT / "src"))
from dfscavity.cli import EXPERIMENTS  # noqa: E402


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for exp in EXPERIMENTS:
            out = Path(tmp) / f"{exp}.json"
            # validate-effective exits 1 by design; the report bytes carry the verdict
            subprocess.run([sys.executable, "-m", "dfscavity.cli", exp, "--seed", SEED, "--out", str(out)],
                           cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            golden = GOLDEN_DIR / f"{exp}.json"
            same = out.is_file() and golden.is_file() and out.read_bytes() == golden.read_bytes()
            print(f"{'same' if same else 'DIFF'}  {exp}")
            if not same:
                differ.append(exp)
    if differ:
        print(f"goldens NOT OK: {len(differ)} of {len(EXPERIMENTS)} reports differ: {', '.join(differ)}")
        return 1
    print(f"goldens OK: all {len(EXPERIMENTS)} reports byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
