"""Check that every default-config report is byte-identical to its golden copy.

    python3 scripts/goldens.py

Runs `python -m dfscavity.cli <experiment> --seed 0` for all eight
experiments, writing each report into a temporary directory, and compares its
bytes with perfbench/golden/<experiment>.json. Prints `same` or `DIFF` per
experiment and exits 0 only when all eight are identical. This is the check
a pure refactor must pass; it writes nothing under perfbench/.

For a report that differs it also prints the dotted path and the absolute and
relative size of the largest numeric deviation, how many numeric leaves differ,
how many other leaves differ (strings, booleans, missing or extra entries), and
whether the flag maps match, so an algorithmic swap can be judged against its
stated tolerance. The exit code stays byte-strict.
"""

from __future__ import annotations

import json
import math
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


def _leaves(value, path=""):
    """(dotted path, value) for every leaf of a parsed JSON report."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _leaves(child, f"{path}.{key}" if path else str(key))
    else:
        yield path, value


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def describe(report: Path, golden: Path) -> str:
    """Where a report differs from its golden copy, in one line."""
    if not report.is_file() or not golden.is_file():
        return "no report" if golden.is_file() else "no golden"
    try:
        new, old = (json.loads(p.read_text(encoding="utf-8")) for p in (report, golden))
    except ValueError:
        return "not JSON"
    a, b = dict(_leaves(new)), dict(_leaves(old))
    numeric = [p for p in a.keys() & b.keys() if _is_number(a[p]) and _is_number(b[p])]
    worst = max(numeric, key=lambda p: abs(a[p] - b[p]), default=None)
    moved = sum(1 for p in numeric if a[p] != b[p])
    others = sum(1 for p in a.keys() | b.keys()
                 if p not in numeric and json.dumps(a.get(p)) != json.dumps(b.get(p)))
    flags = "flags same" if new.get("flags") == old.get("flags") else "flags DIFFER"
    if worst is None or a[worst] == b[worst]:
        return f"no numeric deviation; {others} other leaves differ; {flags}"
    dev = abs(a[worst] - b[worst])
    rel = dev / abs(b[worst]) if b[worst] else math.inf
    return (f"largest numeric deviation at {worst}: abs {dev:.2e}, rel {rel:.2e}; "
            f"{moved} numeric leaves differ; {others} other leaves differ; {flags}")


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
            print(f"same  {exp}" if same else f"DIFF  {exp}  {describe(out, golden)}")
            if not same:
                differ.append(exp)
    if differ:
        print(f"goldens NOT OK: {len(differ)} of {len(EXPERIMENTS)} reports differ: {', '.join(differ)}")
        return 1
    print(f"goldens OK: all {len(EXPERIMENTS)} reports byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
