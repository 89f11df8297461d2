"""Correctness checks on the outputs the benchmark drives.

Every check returns a list of problems; an empty list means the output is
correct. The checks work on JSON-native values (reports parsed from the CLI's
output or from `ExperimentReport.to_dict`), so they need no package import.

Numeric fields are compared with the golden reports within RTOL/ATOL. The
tolerance admits an algorithmic swap that moves values in their last digits
(a different eigensolver or peak finder) but not a change of a physical
result; byte identity is reported separately as a diagnostic.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import EXPERIMENTS, GOLDEN_SEED

RTOL = 1e-8
ATOL = 1e-10

UNITARITY_MAX = 1e-10
NORMALIZATION_MAX = 1e-10
GUARD_LEAKAGE_MAX = 1e-6

# validate-effective exits 1 by design: the exact model caps the egeg->gege
# transfer at 1/9, so the fit gate fires and the deviation grows with delta/G.
VALIDATE_EFFECTIVE_FALSE_FLAGS = frozenset({"fit_gate_passed", "pair_rabi_deviation_decreasing"})

BELL_LABELS = frozenset({"Phi+", "Phi-", "Psi+", "Psi-"})

# Fields that depend on the seed; at seeds other than GOLDEN_SEED they are
# checked through flags and invariants instead of the golden values.
SEED_DEPENDENT = {
    "teleport": frozenset({
        "results.max_branch_deviation_from_1",
        "results.branch_probability_defect",
        "results.single_run.sampled_branch",
        "results.single_run.sampled_fidelity",
    }),
}

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_goldens(directory: Path = GOLDEN_DIR) -> dict[str, dict]:
    return {exp: json.loads((directory / f"{exp}.json").read_text(encoding="utf-8"))
            for exp in EXPERIMENTS}


def expected_exit_code(experiment: str) -> int:
    return 1 if experiment == "validate-effective" else 0


def _false_flags(flags: dict) -> set[str]:
    return {name for name, value in flags.items() if not value}


def compare(value, golden, path: str = "", skip: frozenset = frozenset()) -> list[str]:
    """Differences between a JSON value and its golden, numbers within tolerance."""
    if path in skip:
        return []
    where = path or "<root>"
    if isinstance(golden, dict):
        if not isinstance(value, dict) or set(value) != set(golden):
            return [f"{where}: keys differ from the golden"]
        return [p for key in sorted(golden)
                for p in compare(value[key], golden[key], f"{path}.{key}" if path else key, skip)]
    if isinstance(golden, list):
        if not isinstance(value, list) or len(value) != len(golden):
            return [f"{where}: list differs in length from the golden"]
        return [p for i, (v, g) in enumerate(zip(value, golden))
                for p in compare(v, g, f"{path}[{i}]", skip)]
    if isinstance(golden, bool) or golden is None or isinstance(golden, str):
        return [] if value == golden and type(value) is type(golden) else \
            [f"{where}: {value!r} != golden {golden!r}"]
    if isinstance(golden, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return [f"{where}: {value!r} is not a number"]
        if math.isnan(golden) and math.isnan(value):
            return []
        if math.isclose(value, golden, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{where}: {value!r} differs from golden {golden!r} beyond rtol={RTOL}, atol={ATOL}"]
    return [f"{where}: unexpected golden type {type(golden).__name__}"]


def check_report(experiment: str, report: dict, exit_code: int, seed: int,
                 golden: dict) -> list[str]:
    """A default-config report against its golden: exit code, flag map,
    numeric fields and, at other seeds, the seed-dependent invariants."""
    problems = []
    expected = expected_exit_code(experiment)
    if exit_code != expected:
        problems.append(f"{experiment}: exit code {exit_code}, expected {expected}")
    flags = report.get("flags")
    if not isinstance(flags, dict):
        return problems + [f"{experiment}: report has no flag map"]
    false = _false_flags(flags)
    expected_false = VALIDATE_EFFECTIVE_FALSE_FLAGS if experiment == "validate-effective" else set()
    if flags != golden["flags"] or false != expected_false:
        problems.append(f"{experiment}: flags {flags} differ from the expected map {golden['flags']}")
    if report.get("config", {}).get("seed") != seed:
        problems.append(f"{experiment}: report echoes seed {report.get('config', {}).get('seed')!r}, "
                        f"expected {seed}")
    skip = {"config.seed"}
    if seed != GOLDEN_SEED:
        skip |= SEED_DEPENDENT.get(experiment, frozenset())
        problems += _seed_invariants(experiment, report)
    problems += [f"{experiment}: {p}" for p in compare(report, golden, skip=frozenset(skip))]
    return problems


def _seed_invariants(experiment: str, report: dict) -> list[str]:
    if experiment != "teleport":
        return []
    single = report["results"]["single_run"]
    problems = []
    if single.get("sampled_branch") not in BELL_LABELS:
        problems.append(f"teleport: sampled branch {single.get('sampled_branch')!r} is not a Bell label")
    fidelity = single.get("sampled_fidelity")
    if not isinstance(fidelity, float) or abs(fidelity - 1.0) > 1e-10:
        problems.append(f"teleport: sampled fidelity {fidelity!r} is not 1")
    return problems


def check_validation_runs(runs: list[dict]) -> list[str]:
    """Numerical health of exact-model runs (ValidationRun fields)."""
    problems = []
    for run in runs:
        name = f"delta/G={run.get('delta_over_G', run.get('delta_over_g'))}"
        if not run["unitarity_defect"] < UNITARITY_MAX:
            problems.append(f"{name}: unitarity defect {run['unitarity_defect']!r} >= {UNITARITY_MAX}")
        if not run["normalization_defect"] < NORMALIZATION_MAX:
            problems.append(f"{name}: normalization defect {run['normalization_defect']!r} "
                            f">= {NORMALIZATION_MAX}")
        if not run["guard_leakage"] < GUARD_LEAKAGE_MAX:
            problems.append(f"{name}: guard leakage {run['guard_leakage']!r} >= {GUARD_LEAKAGE_MAX}")
    return problems


def check_exact_report(report: dict, golden: dict) -> list[str]:
    """A scaled validate-effective report: the default run's flag map and
    healthy numerics in every delta/G run."""
    problems = []
    if report["flags"] != golden["flags"]:
        problems.append(f"validate-effective: flags {report['flags']} differ from the expected map "
                        f"{golden['flags']}")
    return problems + check_validation_runs(report["results"]["runs"])


def check_all_flags_true(experiment: str, report: dict) -> list[str]:
    false = sorted(_false_flags(report["flags"]))
    return [f"{experiment}: flags not passed: {', '.join(false)}"] if false else []
