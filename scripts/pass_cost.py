"""Per-pass cost of one benchmark workload: wall time, CPU/wall, minor faults, peak RSS.

    python3 scripts/pass_cost.py --workload NAME [--passes N] [--tree DIR]
    python3 scripts/pass_cost.py --workload NAME [--passes N] --against DIR [--runs K]

Runs the calls of one workload of perfbench (perfbench/workloads.py) in this
process through `perfbench/worker.Runner`, which it only reads, at seed 0:
one untimed warm-up pass, then N timed passes (default 50). The cli-defaults
calls run as `python -m dfscavity.cli` processes, as in the benchmark's timed
runs; the other workloads run in-process. The package and perfbench come
from the checkout at --tree (default: the one holding this script).

Prints, per call and for the whole pass, the median and the minimum wall
time, the process CPU time over the wall time summed over the timed passes
(children's CPU included), and the median minor page faults; then `ru_maxrss` of this
process and of its largest child; then the resident KiB of this process's
mappings of numpy's OpenBLAS and libgfortran from /proc/self/smaps (a LAPACK
call faults in about 1.2 MiB of their code pages, so a workload that reaches
one shows it here); then the count and names of the modules
that the warm-up pass imports beyond those loaded at start-up, so a layer
that pulls in numpy.random, scipy or numpy.ma shows on one line. A CPU/wall
well above 1 means a library call ran on more than one thread: OpenBLAS
hands a large enough product to its thread pool, whose threads keep
spinning after it returns. The timed
passes start half a second after the warm-up, once the pool has stopped the
spin that numpy's import sets off. Faults per pass show memory the pass
takes from the system and gives back. Exits 1 if any call's checks fail,
0 otherwise.

With --against DIR, runs K pairs (default 5) of fresh processes of this
script, one on this checkout and one on the checkout at DIR, alternating
which runs first, and prints each run's pass median, pass minimum and
median minor faults per pass per tree, then the median over the runs of
each and how many pairs each tree won on the median and on the minimum. A
worker process runs all its passes in one of two speed modes, so a
slow-mode run shows as one outlier row, not as a shifted median; the
minimum is the steadier figure. Exits 1 if any run exits non-zero.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _usage() -> tuple[float, int]:
    """CPU seconds and minor faults of this process and its waited-for children."""
    cpu, faults = 0.0, 0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        u = resource.getrusage(who)
        cpu += u.ru_utime + u.ru_stime
        faults += u.ru_minflt
    return cpu, faults


class Meter:
    """Stands in for the tracer of `Runner.run_pass(spans)`, which opens `spans.span(name)`
    around each call and around the whole pass; records (wall, CPU, minor faults) of each."""

    def __init__(self):
        self.rows: dict[str, list[tuple[float, float, int]]] = {}

    @contextmanager
    def span(self, name: str):
        cpu0, faults0 = _usage()
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
        cpu, faults = _usage()
        label = name.partition(".call.")[2] or "pass"  # the worker's span names
        self.rows.setdefault(label, []).append((wall, cpu - cpu0, faults - faults0))


def resident_kib(*names: str) -> list[int | None]:
    """The resident KiB (Rss) of this process's file mappings whose path contains each of
    `names`, summed over their segments, from /proc/self/smaps; None where it cannot be read."""
    try:
        with open("/proc/self/smaps", encoding="utf-8") as smaps:
            lines = smaps.read().splitlines()
    except OSError:
        return [None] * len(names)
    totals, path = [0] * len(names), ""
    for line in lines:
        fields = line.split()
        if fields and "-" in fields[0] and not fields[0].endswith(":"):  # a mapping's header
            path = fields[5] if len(fields) > 5 else ""
        elif fields and fields[0] == "Rss:":
            for i, name in enumerate(names):
                totals[i] += int(fields[1]) if name in path else 0
    return totals


def _checkout(parser: argparse.ArgumentParser, option: str, path: str) -> Path:
    """`path` resolved, if it holds the package source and perfbench's worker; else a usage error."""
    root = Path(path).resolve()
    if not ((root / "src" / "dfscavity").is_dir() and (root / "perfbench" / "worker.py").is_file()):
        parser.error(f"{option} {path}: no checkout with src/dfscavity and perfbench/worker.py there")
    return root


def measure(root: Path, workload: str, passes: int) -> int:
    """The per-call table of `passes` timed passes of `workload` on the checkout at `root`."""
    sys.path.insert(0, str(root / "perfbench"))
    src = str(root / "src")  # for this process and, as the benchmark sets it, for the CLI processes
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, src)
    from worker import Runner  # perfbench's worker, imported as its own process does

    with tempfile.TemporaryDirectory() as out_dir:
        runner = Runner(workload, 0, Path(out_dir), in_process=False)
        started = set(sys.modules)
        runner.run_pass()  # warm-up, untimed
        warm_up_imports = sorted(set(sys.modules) - started)
        # the pool OpenBLAS starts at numpy import spins about 70 ms before it sleeps;
        # wait it out so the timed passes count only the threads they wake themselves
        time.sleep(0.5)
        meter = Meter()
        problems = []
        for _ in range(passes):
            result = runner.run_pass(meter)
            problems += [p for call in result["calls"] for p in call["problems"]]

    print(f"{workload}: {passes} timed pass(es) after one warm-up")
    print(f"{'call':<22}{'wall ms (median)':>18}{'(min)':>9}{'CPU/wall':>10}{'minflt (median)':>17}")
    for label, rows in meter.rows.items():
        walls, cpus, faults = zip(*rows)
        print(f"{label:<22}{1e3 * statistics.median(walls):>18.3f}{1e3 * min(walls):>9.3f}"
              f"{sum(cpus) / sum(walls):>10.2f}{statistics.median(faults):>17.0f}")
    print(f"ru_maxrss: self {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f} MiB, "
          f"largest child {runner.max_child_rss_kb / 1024:.2f} MiB")
    blas, gfortran = resident_kib("openblas", "gfortran")
    print(f"OpenBLAS resident: {blas} KiB, libgfortran {gfortran} KiB (self, /proc/self/smaps)")
    print(f"warm-up imports: {len(warm_up_imports)}" + ": " * bool(warm_up_imports)
          + ", ".join(warm_up_imports))
    print(f"failed checks: {len(problems)}")
    for problem in problems[:10]:
        print(f"  {problem}")
    return 1 if problems else 0


def alternate(other: Path, workload: str, passes: int, runs: int) -> int:
    """`runs` pairs of fresh `measure` processes, this checkout against `other`: each
    run's pass median, minimum and minor faults per tree, and the wins."""
    trees = {"this": ROOT, "other": other}
    results = {name: [] for name in trees}  # (median ms, minimum ms, faults) per run
    failed = 0
    print(f"{workload}: {runs} alternated pair(s) of fresh runs, {passes} timed pass(es) each")
    print(f"other = {other}")
    print(f"{'pair':<6}" + "".join(f"{name + ' ' + column:>14}" for name in trees
                                   for column in ("ms", "min ms", "minflt")) + "  first")
    for k in range(runs):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for name in order:
            run = subprocess.run([sys.executable, __file__, "--workload", workload, "--passes", str(passes),
                                  "--tree", str(trees[name])], capture_output=True, text=True)
            failed += run.returncode != 0
            row = next((line.split() for line in run.stdout.splitlines() if line.startswith("pass ")), None)
            results[name].append((float(row[1]), float(row[2]), float(row[4])) if row else (float("nan"),) * 3)
            if run.returncode:
                last = (run.stdout + run.stderr).strip().splitlines()[-1:] or [""]
                print(f"  {name} run of pair {k + 1} exited {run.returncode}: {last[0]}")
        cells = (f"{ms:>14.3f}{low:>14.3f}{faults:>14.0f}" for ms, low, faults in
                 (results[name][-1] for name in trees))
        print(f"{k + 1:<6}{''.join(cells)}  {order[0]}")
    this, other_runs = (list(zip(*results[name])) for name in trees)
    for column, label in enumerate(("median", "minimum")):
        print(f"pass {label}, median of runs: this {statistics.median(this[column]):.3f} ms, "
              f"other {statistics.median(other_runs[column]):.3f} ms; wins: this "
              f"{sum(a < b for a, b in zip(this[column], other_runs[column]))} of {runs}, other "
              f"{sum(b < a for a, b in zip(this[column], other_runs[column]))} of {runs}")
    print(f"minflt per pass, median of runs: this {statistics.median(this[2]):.0f}, "
          f"other {statistics.median(other_runs[2]):.0f}")
    return 1 if failed else 0


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS  # imports no package code

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--passes", type=int, default=50)
    parser.add_argument("--tree", help="checkout to measure (default: this one)")
    parser.add_argument("--against", help="checkout to alternate fresh runs with")
    parser.add_argument("--runs", type=int, help="pairs of fresh runs with --against (default 5)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error(f"--passes must be >= 1, got {args.passes}")
    if args.against is None:
        if args.runs is not None:
            parser.error("--runs needs --against")
        tree = ROOT if args.tree is None else _checkout(parser, "--tree", args.tree)
        sys.path.remove(str(ROOT / "perfbench"))  # the worker and its workloads come from the measured tree
        del sys.modules["workloads"]
        return measure(tree, args.workload, args.passes)
    if args.tree is not None:
        parser.error("--tree and --against exclude each other")
    runs = 5 if args.runs is None else args.runs
    if runs < 1:
        parser.error(f"--runs must be >= 1, got {runs}")
    return alternate(_checkout(parser, "--against", args.against), args.workload, args.passes, runs)

if __name__ == "__main__":
    sys.exit(main())
