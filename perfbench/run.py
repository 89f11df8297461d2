"""dfscavity benchmark: one command that runs a workload, checks every output
and prints every metric with its unit.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Without arguments it runs every workload at the golden seed, untraced and
traced. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are the
human-readable table, and a JSON file with everything the run measured is
written to perfbench/out/.

Load comes from one closed-loop client in one worker process (worker.py),
calls one after another. OpenBLAS keeps its default thread count, which is
recorded. With `--trace 0` SETUPS fresh workers share the measuring time, so
set-up is measured several times and the passes come from several processes;
end-to-end metrics are reported. With `--trace 1` one worker alternates
untraced and traced passes and the per-layer metrics are reported; they
never come from timed runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import EXPERIMENTS, GOLDEN_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUPS = 3           # fresh workers per timed run
IMPORT_PROBES = 3    # cold `import dfscavity` probes per traced run
RUN_LIMIT_S = 170.0  # a run is stopped and fails past this

# (name, unit, better, bound, definition); the same on every workload
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median over the set-ups of a run: spawn of a fresh interpreter to the first timed call "
     "(import, config parsing, input generation and, in-process, one untimed warm-up pass)"),
    ("solve_s", "s", "lower", 0.25,
     "median wall time of one pass with tracing off; on cli-defaults a pass is the batch of "
     "eight CLI processes, so solve_s is cli_batch_s there"),
    ("peak_rss_mb", "MiB", "lower", 0.1,
     "peak resident memory of the worker process; on cli-defaults of the largest CLI process"),
)

# (name, unit, definition); self times exclude the time of traced callees
PER_LAYER = (
    ("cli.import_s", "s", "cold `import dfscavity`, median of the probes"),
    ("cli.import_modules", "count", "modules loaded by the cold import"),
    ("cli.scipy_loaded", "flag", "1 if the cold import loads scipy"),
    ("cli.run_experiment_s", "s", "run_experiment wall time in a pass, all experiments"),
    *((f"cli.run_experiment_s.{exp}", "s", f"run_experiment wall time for {exp}")
      for exp in EXPERIMENTS),
    ("cli.report_emit_s", "s", "ExperimentReport.to_json self time"),
    ("cli.reports_byte_identical", "count",
     "default-config reports at the golden seed equal to their golden byte for byte, of 8"),
    ("cli.self_s", "s", "self time of traced cli functions"),
    ("hilbert.operator_constructions", "count", "Operator constructions"),
    ("hilbert.operator_check_s", "s", "time in Operator.__post_init__ (flag checks)"),
    ("hilbert.self_s", "s", "self time of traced hilbert functions"),
    ("model.build_hint_calls", "count", "build_hint calls"),
    ("model.build_hint_s", "s", "build_hint self time"),
    ("model.build_full_hamiltonian_s", "s", "build_full_hamiltonian self time"),
    ("model.derive_second_order_s", "s", "derive_second_order self time"),
    ("model.hamiltonian_bytes", "B",
     "computed: dim^2 x 16 B for each build_h0, build_hint and build_full_hamiltonian call"),
    ("model.self_s", "s", "self time of traced model functions"),
    ("dynamics.eigh_calls", "count", "evolve_times, make_propagator and evolve_exact calls"),
    ("dynamics.eigh_work", "dim3", "computed: sum of dim^3 over those calls"),
    ("dynamics.evolve_times_s", "s", "evolve_times self time"),
    ("dynamics.make_propagator_s", "s", "make_propagator self time"),
    ("dynamics.dfs_propagate_calls", "count", "dfs_propagate calls"),
    ("dynamics.dfs_propagate_s", "s", "dfs_propagate self time"),
    ("dynamics.self_s", "s", "self time of traced dynamics functions"),
    ("validate.extract_rabi_s", "s", "extract_rabi self time"),
    ("validate.compare_effective_models_s", "s", "compare_effective_models self time"),
    ("validate.self_s", "s", "self time of traced validate functions"),
    ("gates.r_gate_atomic_calls", "count", "r_gate_atomic calls"),
    ("gates.r_gate_atomic_s", "s", "r_gate_atomic self time"),
    ("gates.self_s", "s", "self time of traced gates functions"),
    ("bell_teleport.teleport_calls", "count", "teleport calls"),
    ("bell_teleport.teleport_s", "s", "teleport self time"),
    ("bell_teleport.self_s", "s", "self time of traced bell_teleport functions"),
    ("errors.thermal_sectors", "count", "sum of len(thermal_weights) over its calls"),
    ("errors.fock_averaged_fidelity_s", "s", "fock_averaged_fidelity self time"),
    ("errors.self_s", "s", "self time of traced errors functions"),
    ("trace.overhead_s", "s", "median traced pass minus median untraced pass"),
    ("trace.unattributed_s", "s", "self time of the benchmark's own pass and call spans"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


class BenchError(RuntimeError):
    pass


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def package_env() -> dict:
    """The environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn_worker(workload: str, seed: int, budget: float, mode: str, deadline: float,
                 spans: Path | None = None) -> tuple[float, dict]:
    """Run one worker; return (spawn-to-ready seconds, its `done` message)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget), "--mode", mode, "--out-dir", str(OUT_DIR)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    # its own process group, so a stop at the deadline also reaches CLI grandchildren
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=package_env(), cwd=ROOT,
                            start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not ready or not rest:
        raise BenchError(f"worker for {workload} ({mode}) exited with code {code}")
    return ready_s, json.loads(rest.splitlines()[-1])


def import_probe(deadline: float) -> tuple[float, int, int]:
    """Cold `import dfscavity` in a fresh interpreter: seconds, modules, scipy loaded."""
    code = ("import sys, time\nn0 = len(sys.modules)\nt0 = time.perf_counter()\nimport dfscavity\n"
            "t1 = time.perf_counter()\nprint(t1 - t0, len(sys.modules) - n0, int('scipy' in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env(),
                         cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()), check=True)
    seconds, modules, scipy_loaded = out.stdout.split()
    return float(seconds), int(modules), int(scipy_loaded)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; None with fewer than eleven samples."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _calls(*passes_lists) -> list[dict]:
    return [c for passes in passes_lists for p in passes if p for c in p["calls"]]


def measure_timed(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    setups, passes, warmups, rss_kb = [], [], [], []
    facts = {}
    spent = 0.0
    for k in range(SETUPS):
        budget = seconds * (k + 1) / SETUPS - spent
        ready_s, done = spawn_worker(workload, seed, budget, "timed", deadline)
        setups.append(ready_s)
        passes += done["passes"]
        warmups.append(done["warmup"])
        spent += sum(p["wall_s"] for p in done["passes"])
        rss_kb.append(done["max_child_rss_kb"] if workload == "cli-defaults" else done["self_rss_kb"])
        facts = done["facts"]
    if not passes:
        raise BenchError("no pass was measured")
    calls = _calls(warmups, passes)
    pass_s = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(pass_s),
        "peak_rss_mb": max(rss_kb) / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "solve_s": f"median of {len(pass_s)} passes",
        "peak_rss_mb": f"largest of {len(rss_kb)} workers' " +
                       ("CLI processes" if workload == "cli-defaults" else "processes"),
    }
    extra = {}
    per_call = {}
    for c in _calls(passes):
        per_call.setdefault(c["label"], []).append(c["wall_s"])
    if workload == "cli-defaults":
        call_s = [s for v in per_call.values() for s in v]
        extra["cli_batch_s"] = (metrics["solve_s"], "s", f"= solve_s, median of {len(pass_s)} batches")
        extra["cli_call_s.p50"] = (statistics.median(call_s), "s", f"median of {len(call_s)} calls")
        t = tail(call_s)
        extra["cli_call_s.tail"] = ((t[0], "s", f"p{t[1]:.1f} of {len(call_s)} calls") if t else
                                    (None, "s", f"needs at least 11 calls, have {len(call_s)}"))
    for label, values in per_call.items():
        extra[f"call_s.{label}"] = (statistics.median(values), "s", f"median of {len(values)} calls")
    return {"metrics": metrics, "notes": notes, "extra": extra, "calls": calls, "facts": facts,
            "samples": {"setup_s": setups, "pass_s": pass_s, "rss_kb": rss_kb}}


def measure_traced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    probes = [import_probe(deadline) for _ in range(IMPORT_PROBES)]
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    _, done = spawn_worker(workload, seed, float(seconds), "traced", deadline, spans)
    layers = [entry["metrics"] for entry in done["layer"]]
    measured = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    measured.update({
        "cli.import_s": statistics.median(p[0] for p in probes),
        "cli.import_modules": statistics.median(p[1] for p in probes),
        "cli.scipy_loaded": max(p[2] for p in probes),
        "cli.reports_byte_identical": done["reports_byte_identical"],
        "trace.overhead_s": done["overhead_s"],
    })
    metrics = {name: measured[name] for name, *_ in PER_LAYER}
    counts = [entry["per_call"] for entry in done["layer"]]
    notes = {name: f"median of {len(layers)} traced passes" for name in metrics}
    for name in ("cli.import_s", "cli.import_modules", "cli.scipy_loaded"):
        notes[name] = f"of {len(probes)} cold imports"
    notes["cli.reports_byte_identical"] = "of 8"
    notes["trace.overhead_s"] = (f"{len(done['traced_passes'])} traced vs "
                                 f"{len(done['passes'])} untraced passes")
    extra = {"counts_repeat": (int(all(c == counts[0] for c in counts)), "flag",
                               f"per-call counts equal in all {len(counts)} traced passes")}
    return {"metrics": metrics, "notes": notes, "extra": extra, "per_call_counts": counts[0],
            "calls": _calls([done["warmup"]], done["passes"], done["traced_passes"]),
            "facts": done["facts"], "spans_file": str(spans.relative_to(ROOT))}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def run_one(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    measure = measure_traced if trace else measure_timed
    result = measure(workload, seed, seconds, deadline)
    failed = [c for c in result["calls"] if c["problems"]]
    attempted = len(result["calls"])
    command = (f"python3 perfbench/run.py --workload {workload} --seed {seed} "
               f"--seconds {seconds} --trace {trace}")
    facts = {"nproc": len(os.sched_getaffinity(0)), **result["facts"]}
    print(f"== {workload}  seed={seed}  seconds={seconds}  trace={trace} ==")
    print(f"command: {command}")
    print("facts: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    rows = [(name, value, UNITS[name], result["notes"].get(name, ""))
            for name, value in result["metrics"].items()]
    rows += [(name, v, unit, note) for name, (v, unit, note) in result["extra"].items()]
    rows.append(("ops_failed_ratio", len(failed) / attempted, "ratio",
                 f"{len(failed)} of {attempted} checked calls failed"))
    for name, value, unit, note in rows:
        print(f"  {name:<40} {_fmt(value):>14} {unit:<6} {note}")
    for label, counts in result.get("per_call_counts", {}).items():
        print(f"  per call {label}: " + ", ".join(f"{k}={_fmt(v)}" for k, v in counts.items() if v))
    for c in failed[:5]:
        print(f"  FAILED {c['label']}: {'; '.join(c['problems'][:3])}", file=sys.stderr)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "command": command, "facts": facts, "attempted": attempted, "failed": len(failed),
              **{k: v for k, v in result.items() if k not in ("calls", "facts")}}
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return {"attempted": attempted, "failed": len(failed), "metrics": result["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "dfscavity" / "__init__.py").is_file():
        print(f"benchmark error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    single = len(workloads) * len(traces) == 1
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads) * len(traces)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            for trace in traces:
                res = run_one(workload, args.seed, args.seconds, trace, deadline)
                attempted += res["attempted"]
                failed += res["failed"]
                for name, value in res["metrics"].items():
                    key = name if single else f"{workload}.{name}"
                    metrics[key] = {"value": value, "unit": UNITS[name]}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
