"""Tests of the benchmark's own code: inputs, checker, metric names, tracer.

    python3 -m pytest perfbench -q

They import nothing from the package and start no process.
"""

from __future__ import annotations

import copy
import json
import re
import sys
import types
from pathlib import Path

import pytest

import checks
import run
import tracer
from workloads import EXPERIMENTS, GOLDEN_SEED, WORKLOADS, calls

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def goldens():
    return checks.load_goldens()


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload):
    assert calls(workload, 7) == calls(workload, 7)
    assert calls(workload, 7) != calls(workload, 8)
    assert all("seed = 7\n" in c.config_text for c in calls(workload, 7))


def test_inputs_cover_the_named_scales():
    assert [c.experiment for c in calls("cli-defaults", 0)] == list(EXPERIMENTS)
    exact = {c.label: c.config_text for c in calls("exact-scaled", 0)}
    assert "n_max = 16" in exact["validate-effective"]
    assert "n_max = 32" in exact["forced_rabi_fit"] and "delta_over_G = 20" in exact["forced_rabi_fit"]
    sweeps = {c.label: c.config_text for c in calls("protocol-sweeps", 0)}
    assert "theta_points = 60\ndelay_points = 60" in sweeps["teleport"]
    assert "nbar_max = 10" in sweeps["thermal"]


def test_unknown_workload_and_negative_seed_are_rejected():
    with pytest.raises(ValueError):
        calls("nope", 0)
    with pytest.raises(ValueError):
        calls("cli-defaults", -1)


# ----------------------------------------------------------------- checker

@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_goldens_pass_their_own_check(goldens, experiment):
    golden = goldens[experiment]
    code = checks.expected_exit_code(experiment)
    assert checks.check_report(experiment, golden, code, GOLDEN_SEED, golden) == []


def test_golden_flag_maps_are_the_documented_ones(goldens):
    for experiment, golden in goldens.items():
        false = {k for k, v in golden["flags"].items() if not v}
        expected = checks.VALIDATE_EFFECTIVE_FALSE_FLAGS if experiment == "validate-effective" else set()
        assert false == expected, experiment


def test_checker_rejects_a_flipped_flag(goldens):
    report = copy.deepcopy(goldens["teleport"])
    report["flags"]["dfs_delay_and_dephase_immune"] = False
    problems = checks.check_report("teleport", report, 0, GOLDEN_SEED, goldens["teleport"])
    assert any("flags" in p for p in problems)


def test_checker_rejects_a_number_past_the_tolerance(goldens):
    report = copy.deepcopy(goldens["durations"])
    value = report["results"]["cnot_time_aggregate_s"]
    report["results"]["cnot_time_aggregate_s"] = value * (1 + 10 * checks.RTOL) + 10 * checks.ATOL
    problems = checks.check_report("durations", report, 0, GOLDEN_SEED, goldens["durations"])
    assert any("cnot_time_aggregate_s" in p for p in problems)
    # within the tolerance it passes
    report["results"]["cnot_time_aggregate_s"] = value * (1 + checks.RTOL / 10)
    assert checks.check_report("durations", report, 0, GOLDEN_SEED, goldens["durations"]) == []


def test_checker_rejects_validate_effective_exiting_0(goldens):
    golden = goldens["validate-effective"]
    problems = checks.check_report("validate-effective", golden, 0, GOLDEN_SEED, golden)
    assert any("exit code 0" in p for p in problems)


def test_checker_rejects_a_wrong_seed_echo_and_a_missing_field(goldens):
    golden = goldens["entangle"]
    assert checks.check_report("entangle", golden, 0, 5, golden)  # echoes seed 0
    report = copy.deepcopy(golden)
    del report["results"]["norm"]
    assert checks.check_report("entangle", report, 0, GOLDEN_SEED, golden)


def test_seed_dependent_fields_are_checked_by_invariants(goldens):
    golden = goldens["teleport"]
    report = copy.deepcopy(golden)
    report["config"]["seed"] = 9
    report["results"]["single_run"]["sampled_branch"] = "Psi-"
    assert checks.check_report("teleport", report, 0, 9, golden) == []
    report["results"]["single_run"]["sampled_branch"] = "gggg"
    assert checks.check_report("teleport", report, 0, 9, golden)


def test_exact_checks_reject_unhealthy_numerics(goldens):
    golden = goldens["validate-effective"]
    assert checks.check_exact_report(golden, golden) == []
    report = copy.deepcopy(golden)
    report["results"]["runs"][1]["unitarity_defect"] = 1e-9
    report["results"]["runs"][2]["guard_leakage"] = 1e-5
    assert len(checks.check_exact_report(report, golden)) == 2
    report = copy.deepcopy(golden)
    report["flags"]["unitarity_ok"] = False
    assert checks.check_exact_report(report, golden)


def test_all_flags_true_check(goldens):
    assert checks.check_all_flags_true("thermal", goldens["thermal"]) == []
    report = copy.deepcopy(goldens["thermal"])
    report["flags"]["non_increasing_in_nbar"] = False
    assert checks.check_all_flags_true("thermal", report)


# ----------------------------------------------------------------- metrics

def test_every_metric_name_is_well_formed():
    declared = [m[0] for m in run.END_TO_END + run.PER_LAYER]
    assert len(set(declared)) == len(declared)
    printed = ["cli_batch_s", "cli_call_s.p50", "cli_call_s.tail", "ops_failed_ratio", "counts_repeat"]
    printed += [f"call_s.{c.label}" for w in WORKLOADS for c in calls(w, 0)]
    bad = [n for n in declared + printed if not (NAME.fullmatch(n) and len(n) <= 64)]
    assert bad == []


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == \
        [m[:4] for m in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [m[:2] for m in run.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(i) for i in range(1, 17)])
    assert (value, pct) == (6.0, 37.5)
    value, pct = run.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)


# ------------------------------------------------------------------ tracer

def _synthetic_spans():
    return [
        ["bench.pass", 0.0, 10.0, -1, None],
        ["bench.call.x", 0.0, 9.0, 0, None],
        ["cli.run_experiment", 1.0, 8.0, 1, "teleport"],
        ["bell_teleport.teleport", 2.0, 5.0, 2, None],
        ["gates.r_gate_atomic", 2.5, 3.0, 3, None],
        ["hilbert.Operator", 2.6, 2.8, 4, None],
        ["errors.thermal_weights", 6.0, 7.0, 2, 12],
    ]


def test_self_time_is_duration_minus_children():
    own = tracer.self_times(_synthetic_spans())
    assert own == pytest.approx([1.0, 2.0, 3.0, 2.5, 0.3, 0.2, 1.0])


def test_layer_metrics_from_spans():
    metrics = tracer.layer_metrics(_synthetic_spans(), EXPERIMENTS)
    assert metrics["cli.run_experiment_s.teleport"] == pytest.approx(7.0)
    assert metrics["cli.run_experiment_s"] == pytest.approx(7.0)
    assert metrics["bell_teleport.teleport_calls"] == 1
    assert metrics["bell_teleport.teleport_s"] == pytest.approx(2.5)
    assert metrics["gates.r_gate_atomic_calls"] == 1
    assert metrics["hilbert.operator_constructions"] == 1
    assert metrics["errors.thermal_sectors"] == 12
    assert metrics["trace.unattributed_s"] == pytest.approx(3.0)
    layer_names = {m[0] for m in run.PER_LAYER}
    assert set(metrics) <= layer_names
    assert tracer.per_call_counts(_synthetic_spans())["x"]["gates.r_gate_atomic_calls"] == 1


def test_instrument_wraps_every_namespace_and_restores_it():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.dynamics")
    user = types.ModuleType("fakepkg.errors")

    def dfs_propagate(x):
        return x

    inner.dfs_propagate = user.dfs_propagate = dfs_propagate
    modules = {"fakepkg": pkg, "fakepkg.dynamics": inner, "fakepkg.errors": user}
    sys.modules.update(modules)
    try:
        spans = tracer.Tracer()
        with tracer.instrument(spans, "fakepkg", (("dynamics", "dfs_propagate", None),), ()):
            user.dfs_propagate(1)
            inner.dfs_propagate(2)
        user.dfs_propagate(3)
    finally:
        for name in modules:
            del sys.modules[name]
    assert [s[0] for s in spans.spans] == ["dynamics.dfs_propagate"] * 2
    assert user.dfs_propagate is dfs_propagate and inner.dfs_propagate is dfs_propagate
