"""Benchmark worker: one fresh interpreter that runs passes of one workload.

Started by run.py with PYTHONPATH pointing at the package source. It imports
dfscavity, parses the workload's configs, runs one untimed warm-up pass on
the in-process workloads and prints a `ready` line; the parent times spawn to
ready as set-up. It then runs passes until their summed wall time reaches
`--budget` seconds and prints one `done` line with every pass, call and check.

In `timed` mode the passes run untraced. In `traced` mode untraced and traced
passes alternate (at least one of each), so the tracing overhead is the
difference of their medians; the spans of the first traced pass are written
to `--spans`.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

from dfscavity import cli, validate
from dfscavity.hilbert import SystemParams

import checks
import tracer
from workloads import EXPERIMENTS, GOLDEN_SEED, calls


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def openblas_facts() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    config = np.__config__.CONFIG["Build Dependencies"]["blas"]
    facts = {"blas": config.get("name"), "blas_version": config.get("version"), "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "numpy" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


class Runner:
    """The calls of one workload at one seed, with their parsed inputs.

    `in_process` runs the CLI calls of cli-defaults through `run_experiment`
    in this process, so that a tracer can see their layers.
    """

    def __init__(self, workload: str, seed: int, out_dir: Path, in_process: bool):
        self.workload = workload
        self.in_process = in_process
        self.seed = seed
        self.out_dir = out_dir
        self.goldens = checks.load_goldens()
        self.calls = calls(workload, seed)
        self.configs = {c.label: cli.parse_config(c.config_text, c.experiment) for c in self.calls}
        self.max_child_rss_kb = 0

    # ---------------------------------------------------------------- calls

    def run_cli(self, call) -> list[str]:
        """One `python -m dfscavity.cli` process, timed from spawn to exit."""
        out = self.out_dir / f"report-{call.experiment}.json"
        out.unlink(missing_ok=True)
        proc = subprocess.Popen(
            [sys.executable, "-m", "dfscavity.cli", call.experiment,
             "--seed", str(self.seed), "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            return [f"{call.experiment}: no readable report ({err})"]
        return checks.check_report(call.experiment, report, proc.returncode, self.seed,
                                   self.goldens[call.experiment])

    def run_in_process(self, call) -> list[str]:
        config = self.configs[call.label]
        if call.api == "forced_rabi_fit":
            params = SystemParams(G=config.G, delta=config.delta_over_G[0] * config.G,
                                  n_max=config.n_max)
            return checks.check_validation_runs([asdict(validate.forced_rabi_fit(params))])
        report = cli.run_experiment(config)
        if call.api == "cli":  # the CLI's work in-process: report text and exit code
            return checks.check_report(call.experiment, json.loads(report.to_json()),
                                       0 if report.passed else 1, self.seed,
                                       self.goldens[call.experiment])
        if self.workload == "exact-scaled":
            return checks.check_exact_report(report.to_dict(), self.goldens[call.experiment])
        return checks.check_all_flags_true(call.experiment, report.to_dict())

    # ---------------------------------------------------------------- passes

    def run_pass(self, spans: tracer.Tracer | None = None) -> dict:
        span = spans.span if spans else (lambda name: nullcontext())
        records = []
        start = time.perf_counter()
        with span(f"{tracer.BENCH}.pass"):
            for call in self.calls:
                with span(f"{tracer.BENCH}.call.{call.label}"):
                    t0 = time.perf_counter()
                    if call.api == "cli" and not self.in_process:
                        problems = self.run_cli(call)
                    else:
                        problems = self.run_in_process(call)
                    wall = time.perf_counter() - t0
                records.append({"label": call.label, "wall_s": wall, "problems": problems})
        return {"wall_s": time.perf_counter() - start, "calls": records}

    def golden_bytes_identical(self) -> int:
        """Default-config reports at GOLDEN_SEED that equal their golden byte for byte."""
        same = 0
        for exp in EXPERIMENTS:
            text = cli.run_experiment(cli.parse_config(f"seed = {GOLDEN_SEED}\n", exp)).to_json()
            golden = (checks.GOLDEN_DIR / f"{exp}.json").read_text(encoding="utf-8")
            same += text == golden
        return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    # SystemParams warns when G*sqrt(n_max(n_max-1))/delta >= 0.25, which every
    # scaled exact config is by design; the reports record the ratio as data.
    warnings.simplefilter("ignore")

    traced_mode = args.mode == "traced"
    runner = Runner(args.workload, args.seed, args.out_dir, in_process=traced_mode)
    warmup = None
    if args.workload != "cli-defaults" or traced_mode:
        warmup = runner.run_pass()
    emit({"event": "ready"})

    passes, traced_passes, layer = [], [], []
    spans_out = None
    spent = 0.0
    while spent < args.budget or (traced_mode and not (passes and traced_passes)):
        if traced_mode and len(traced_passes) < len(passes):
            recorder = tracer.Tracer()
            with tracer.instrument(recorder):
                result = runner.run_pass(recorder)
            traced_passes.append(result)
            layer.append({"metrics": tracer.layer_metrics(recorder.spans, EXPERIMENTS),
                          "per_call": tracer.per_call_counts(recorder.spans)})
            if spans_out is None:
                spans_out = recorder.spans
        else:
            result = runner.run_pass()
            passes.append(result)
        spent += result["wall_s"]

    done = {
        "event": "done",
        "warmup": warmup,
        "passes": passes,
        "traced_passes": traced_passes,
        "layer": layer,
        "max_child_rss_kb": runner.max_child_rss_kb,
        "self_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "facts": {"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": importlib.metadata.version("scipy"), **openblas_facts()},
    }
    if traced_mode:
        done["reports_byte_identical"] = runner.golden_bytes_identical()
        done["overhead_s"] = (statistics.median(p["wall_s"] for p in traced_passes)
                              - statistics.median(p["wall_s"] for p in passes))
        if args.spans:
            args.spans.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "tag"], "spans": spans_out}))
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
