"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent REV --workload NAME --pairs N --out BENCH_<n>.json

Exports the committed files of REV into a temporary directory with `git
archive`, and copies the working tree as it is at start (uncommitted edits
and untracked files that are not ignored included) into a second one, so an
edit saved while the pairs run does not reach the code under test. Then runs
each tree's own, unmodified `perfbench/run.py --workload NAME --seed K
--seconds S --trace 0` N times (N >= 10), with S the `run_seconds` of
BENCHMARK.json, pair K using seed K on both sides and alternating which side
runs first. The end-to-end metrics come from the JSON line each run prints;
the machine facts from the result file it writes under its own
`perfbench/out/`. Both temporary trees are removed at the end. Nothing under
`perfbench/` is changed.

The output file, at the repository root unless a path says otherwise, holds
one entry per workload (a later run for another workload is merged in): per
metric the parent's and the change's median and quartiles, how many pairs
the change won, and whether the median gap exceeds the parent's
interquartile range; both sides' operation totals; plus every run's metrics
and attempted operations, and the machine facts. The printed summary ends
with the operation totals.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export_tree(rev: str, dest: Path) -> None:
    """The committed files of `rev` under `dest` (no .git, no worktree entry)."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def snapshot_worktree(root: Path, dest: Path) -> None:
    """The files of the working tree at `root` as they are now, copied under
    `dest`: tracked files with their uncommitted edits and untracked files
    that are not ignored; a tracked file deleted from the tree is left out."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                             cwd=root, capture_output=True, text=True, check=True).stdout
    for name in filter(None, listing.split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in `tree`: its metrics, check counts and machine facts."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    return {"metrics": {name: m["value"] for name, m in line["metrics"].items()},
            "attempted": line["attempted"], "failed": line["failed"], "facts": result["facts"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def compare(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' summaries, the change's pair wins and the gap test."""
    out = {}
    for name, direction in better.items():
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        p, c = summarize(parent), summarize(change)
        out[name] = {"better": direction, "parent": p, "change": c, "change_wins": wins,
                     "pairs": len(runs), "median_gain": sign * (p["median"] - c["median"]),
                     "gap_exceeds_parent_iqr": sign * (p["median"] - c["median"]) > p["iqr"]}
    return out


def summary_lines(workload: str, entry: dict) -> list[str]:
    """One line per metric (both medians and quartiles, the change's wins), then both
    sides' operation totals: a side that fits more passes into the same budget keeps more
    pass records, which the memory metric reads too."""
    lines = [f"{workload} {name}: parent {m['parent']['median']:.4g} "
             f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change {m['change']['median']:.4g} "
             f"[{m['change']['q1']:.4g}, {m['change']['q3']:.4g}]  change wins {m['change_wins']}/{m['pairs']}"
             for name, m in entry["metrics"].items()]
    attempted, failed = entry["ops_attempted"], entry["ops_failed"]
    lines.append(f"{workload} operations attempted (failed): parent {attempted['parent']} "
                 f"({failed['parent']})  change {attempted['change']} ({failed['change']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--out", required=True, help="output JSON, relative to the repository root")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be >= {MIN_PAIRS}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parent_sha = git("rev-parse", args.parent)
    change_desc = f"snapshot of the working tree at {git('rev-parse', 'HEAD')}" + \
        (" with uncommitted changes" if git("status", "--porcelain") else "")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        export_tree(parent_sha, parent_tree)
        change_tree = Path(tmp) / "change"
        snapshot_worktree(ROOT, change_tree)
        trees = {"parent": parent_tree, "change": change_tree}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": k, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, k, seconds)
                print(f"pair {k} {side}: " + " ".join(f"{n}={v:.4g}" for n, v in pair[side]["metrics"].items()),
                      flush=True)
            runs.append(pair)

    facts = {side: runs[-1][side]["facts"] for side in ("parent", "change")}
    entry = {
        "parent": parent_sha,
        "change": change_desc,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <pair> "
                   f"--seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "metrics": compare(runs, better),
        "ops_failed": {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")},
        "ops_attempted": {side: sum(r[side]["attempted"] for r in runs) for side in ("parent", "change")},
        "facts": facts,
        "facts_constant": all(r[s]["facts"] == facts[s] for r in runs for s in facts),
        "runs": [{"seed": r["seed"], "first": r["first"],
                  "attempted": {side: r[side]["attempted"] for side in ("parent", "change")},
                  **{side: r[side]["metrics"] for side in ("parent", "change")}} for r in runs],
    }
    out = ROOT / args.out
    doc = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {"workloads": {}}
    doc["workloads"][args.workload] = entry
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(summary_lines(args.workload, entry)))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
