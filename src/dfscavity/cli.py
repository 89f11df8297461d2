"""Experiment runner: line-oriented config, named experiments, deterministic
JSON/CSV reports.

Usage:
    dfscavity <experiment> [--config PATH] [--out PATH] [--format json|csv] [--seed N]

Experiments: entangle, cnot-verify, bell, teleport, stagger-sweep (in units
of 1/Omega: pulse_area is the duration), thermal, validate-effective,
durations. Exit codes: 0 all embedded PASS flags true, 1 experiment failure
(report still written) or a durations run whose CNOT search finds no passing
convention (one stderr line, no report written), 2 config error, or an --out
path or stdout that cannot be written (no report written). The numeric-domain
rules are the library's; `_check_config` asks them and names the keys. Without
--out the report goes to stdout. No environment variables are consulted;
identical config + seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .bell_teleport import (
    CORRECTION_TABLE,
    BellLabel,
    _check_phase,
    bell_measure,
    prepare_bell,
    teleport,
)
from .dynamics import _series, dfs_propagate, pair_swap_spectrum
from .errors import (
    StaggerParams,
    _closed_form,
    fock_averaged_fidelity,
    stagger_sweep,
    staggered_fidelity,
    staggered_fidelity_closed_form,
)
from .gates import (
    P_GATE_DURATION,
    R_PULSE_AREA,
    NoPassingConvention,
    PulseSequence,
    cnot_duration,
    cnot_gate_list,
    compile_cnot,
    convention_search,
    entangle_duration,
    schedule_duration,
)
from .hilbert import UNITARY_ATOL, StateVector, SystemParams, unitary_defect
from .logical import LOGICAL_INDICES
from .model import build_h_eff, effective_coupling

EXPERIMENTS = (
    "entangle", "cnot-verify", "bell", "teleport",
    "stagger-sweep", "thermal", "validate-effective", "durations",
)

DEFAULT_G = 2 * np.pi * 47e3
MAX_GRID_POINTS = 10**6  # theta_points x delay_points of the teleport grid, and nbar_points


def _check_fit_span(params: SystemParams) -> None:
    from .validate import fit_span  # validate loads for validate-effective alone
    fit_span(params, 0)


_DOMAIN_RULES = {"entangle": entangle_duration, "durations": cnot_duration,  # each checks the pair rate first
                 "validate-effective": _check_fit_span}


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")


def _parse_float(key: str, raw: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}", line) from None
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r}: value must be finite, got {raw!r}", line)
    return value


def _parse_int(key: str, raw: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}", line) from None


def _parse_floats(key: str, raw: str, line: int) -> tuple[float, ...]:
    return tuple(_parse_float(key, tok.strip(), line) for tok in raw.split(",") if tok.strip())


class _Kind(NamedTuple):
    parse: Callable[[str, str, int], object]  # (key, raw text, line) -> value
    render: Callable[[object], str]


_FLOAT = _Kind(_parse_float, lambda v: repr(float(v)))
_INT = _Kind(_parse_int, str)
_FLOATS = _Kind(_parse_floats, lambda v: ",".join(repr(float(x)) for x in v))
_STR = _Kind(lambda key, raw, line: raw, str)


class _Key(NamedTuple):
    """One ExperimentConfig key: its kind and its domain check. `ok` tests a
    value, or each entry of a list; `problem` is the error text, formatted
    with the failing value as {v}. Unset (None) values are not checked."""

    kind: _Kind
    ok: Callable[[object], bool] | None = None
    problem: str = ""


def _key(default, kind: _Kind, ok=None, problem: str = ""):
    """A config field: its default, with its `_Key` as the field's metadata."""
    return field(default=default, metadata={"key": _Key(kind, ok, problem)})


def _at_least(low):
    return lambda v: v >= low


@dataclass(frozen=True)
class ExperimentConfig:
    """Every config key, in the order the domain checks run: its default,
    and its `_Key` in the field metadata."""

    experiment: str | None = _key(None, _STR, EXPERIMENTS.__contains__,
                                  "unknown experiment {v!r}; choose from " + ", ".join(EXPERIMENTS))
    G: float = _key(DEFAULT_G, _FLOAT, lambda v: v > 0, "must be > 0, got {v}")
    delta: float | None = _key(None, _FLOAT, lambda v: v != 0, "must be nonzero")  # None: 10*G
    omega_a: float | None = _key(None, _FLOAT)  # echoed and checked against delta only
    omega: float | None = _key(None, _FLOAT)
    n_max: int = _key(8, _INT, _at_least(4), "must be >= 4, got {v}")
    theta: float = _key(np.pi / 2, _FLOAT)
    delay_T: float = _key(np.pi, _FLOAT, _at_least(0), "must be >= 0")
    delay_max: float = _key(2 * np.pi, _FLOAT, _at_least(0), "must be >= 0")
    theta_points: int = _key(12, _INT, _at_least(1), "must be >= 1")
    delay_points: int = _key(8, _INT, _at_least(1), "must be >= 1")
    atom_splitting: float = _key(1.0, _FLOAT, lambda v: v > 0, "must be > 0, got {v}")
    t1_fraction: float = _key(0.02, _FLOAT, lambda v: 0 <= v <= 1, "must lie in [0, 1]")
    t1_fractions: tuple[float, ...] = _key(tuple(np.linspace(0.0, 0.25, 50).tolist()), _FLOATS,
                                           lambda v: 0 <= v <= 1, "entries must lie in [0, 1], got {v}")
    pulse_area: float = _key(R_PULSE_AREA, _FLOAT, _at_least(0), "must be >= 0")
    nbar: float = _key(0.1, _FLOAT, _at_least(0), "must be >= 0")
    nbar_max: float = _key(2.0, _FLOAT, _at_least(0), "must be >= 0")
    nbar_points: int = _key(50, _INT, lambda v: 2 <= v <= MAX_GRID_POINTS,
                            f"must lie in [2, {MAX_GRID_POINTS}], got {{v}}")
    delta_over_G: tuple[float, ...] = _key((10.0, 20.0, 40.0), _FLOATS,
                                           lambda v: v > 0, "entries must be > 0, got {v}")
    seed: int = _key(0, _INT, _at_least(0), "must be >= 0")
    format: str = _key("json", _STR, ("json", "csv").__contains__, "must be 'json' or 'csv', got {v!r}")

    def resolved_delta(self) -> float:
        return self.delta if self.delta is not None else 10.0 * self.G

    def system_params(self) -> SystemParams:
        return SystemParams(G=self.G, delta=self.resolved_delta(), n_max=self.n_max)


_SCHEMA: dict[str, _Key] = {f.name: f.metadata["key"] for f in fields(ExperimentConfig)}


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse the line-oriented `key = value` format ('#' starts a comment).

    Unknown keys, duplicate keys, and non-finite numbers are rejected with
    the offending key and line number. `experiment` supplied by the caller
    (the CLI positional) overrides the config key.
    """
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not raw:
            raise ConfigError(f"key {key!r}: missing value", lineno)
        values[key] = _SCHEMA[key].kind.parse(key, raw, lineno)
    config = ExperimentConfig(**values)
    if experiment is not None:
        config = replace(config, experiment=experiment)
    return _check_config(config)


def _check_config(c: ExperimentConfig) -> ExperimentConfig:
    if c.experiment is None:
        raise ConfigError("missing experiment name (positional argument or 'experiment' key)")
    for key, spec in _SCHEMA.items():
        value = getattr(c, key)
        if isinstance(value, tuple) and not value:
            raise ConfigError(f"key {key!r}: needs at least one entry")
        if spec.ok is None or value is None:
            continue
        for item in value if isinstance(value, tuple) else (value,):
            if not spec.ok(item):
                raise ConfigError(f"key {key!r}: " + spec.problem.format(v=item))
    if c.theta_points * c.delay_points > MAX_GRID_POINTS:
        # a teleport grid call peaks at about 115 B per point with dephasing
        raise ConfigError(f"keys 'theta_points' x 'delay_points': the grid has "
                          f"{c.theta_points * c.delay_points} points, more than {MAX_GRID_POINTS}")
    if c.omega_a is not None and c.omega is not None:
        # the model reads delta only (frame rotating at omega_a); the pair must agree with it
        delta, implied = c.resolved_delta(), 2.0 * (c.omega - c.omega_a)
        if abs(delta - implied) > 1e-9 * max(1.0, abs(delta)):
            raise ConfigError(f"keys 'omega_a' and 'omega': 2*(omega - omega_a) = {implied} "
                              f"but delta = {delta}")
    if c.experiment == "teleport":
        try:  # the grid's longest delay, the single run's, and the bare comparison's pi/atom_splitting
            _check_phase(c.atom_splitting, (c.delay_max, c.delay_T, np.pi / c.atom_splitting))
        except ValueError as err:
            raise ConfigError(f"key 'atom_splitting': {err}") from None
    deltas, keys = [c.resolved_delta()], "'G' and 'delta'"
    if c.experiment == "validate-effective":
        for key in ("delta", "omega_a", "omega"):
            if getattr(c, key) is not None:
                raise ConfigError(f"key {key!r}: not used by validate-effective, which sets "
                                  "delta = delta_over_G * G")
        deltas, keys = [r * c.G for r in c.delta_over_G], "'G' and 'delta_over_G'"
    if c.experiment in _DOMAIN_RULES:  # the ones that read G
        try:
            for delta in deltas:
                _DOMAIN_RULES[c.experiment](SystemParams(G=c.G, delta=delta, n_max=c.n_max))
        except ValueError as err:
            raise ConfigError(f"keys {keys}: {err}") from None
    return c


def serialize_config(c: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) round-trips."""
    lines = []
    for key, spec in _SCHEMA.items():
        value = getattr(c, key)
        if value is not None:
            lines.append(f"{key} = {spec.kind.render(value)}")
    return "\n".join(lines) + "\n"


def _config_echo(c: ExperimentConfig) -> dict:
    """Every field and the resolved delta, as they are; `_native` converts them for JSON."""
    return {f.name: getattr(c, f.name) for f in fields(c)} | {"delta_resolved": c.resolved_delta()}


def _c2l(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


_PLAIN = frozenset((str, int, float, bool, type(None)))


def _native(obj):
    """Recursively convert tuples, numpy floats and numpy bools for JSON emission;
    a plain leaf comes back as it is after one type() lookup, made in its container."""
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, dict):
        return {k: v if type(v) in _PLAIN else _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _PLAIN else _native(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


class ExperimentReport(NamedTuple):
    config: dict
    experiment: str
    library_version: str
    conventions: dict
    results: dict
    flags: dict

    @property
    def passed(self) -> bool:
        return all(bool(v) for v in self.flags.values())

    def to_dict(self) -> dict:
        results = {k: v for k, v in self.results.items() if k != "csv_table"}
        return _native({
            "config": self.config,
            "experiment": self.experiment,
            "library_version": self.library_version,
            "conventions": self.conventions,
            "results": results,
            "flags": self.flags,
            "passed": self.passed,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        header, rows = self.results.get("csv_table") or (
            ["key", "value"], sorted(_flatten("", self.to_dict()).items()))
        lines = [",".join(header)] + [",".join(_csv_cell(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _flatten(prefix: str, obj) -> dict:
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_flatten(f"{prefix}.{k}" if prefix else str(k), v))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(_flatten(f"{prefix}[{i}]", v))
    else:
        out[prefix] = obj
    return out


# ------------------------------------------------------------- experiments

def _correction_table() -> dict:
    return {label.value: op for label, op in CORRECTION_TABLE.items()}


def _convention_dict(seq) -> dict:
    return {
        "application_order": seq.convention.application_order,
        "p_sign": seq.convention.p_sign,
        "correction_table": _correction_table(),
    }


def _run_entangle(c: ExperimentConfig) -> tuple[dict, dict, dict]:
    params = c.system_params()
    start = StateVector.basis_state("egeg")
    closed = dfs_propagate(start, np.pi / 4)
    omega0 = effective_coupling(0, params).omega
    exact = _series(*pair_swap_spectrum(build_h_eff(params, 0, include_stark=False).matrix),
                    start.amplitudes, [(np.pi / 4) / omega0])[0]
    defect = float(np.max(np.abs(closed.amplitudes - exact)))
    results = {
        "pulse_area": np.pi / 4,
        "duration_s": entangle_duration(params),
        "amplitudes": {"egeg": _c2l(closed.amplitude("egeg")),
                       "gege": _c2l(closed.amplitude("gege"))},
        "closed_vs_exponential_defect": defect,
        "norm": closed.norm(),
    }
    flags = {"closed_form_matches_exponential": defect < 1e-10,
             "normalized": abs(closed.norm() - 1) < 1e-12}
    return results, flags, {}


def _run_cnot_verify(c: ExperimentConfig) -> tuple[dict, dict, dict]:
    search = convention_search()
    # the first passing convention, or the first one when none passes: its flags read false
    conv, report, u_atomic = next((entry for entry in search if entry[1].passed), search[0])
    seq = PulseSequence(cnot_gate_list(), conv)
    code_cols = u_atomic[:, list(LOGICAL_INDICES)]
    u_logical = code_cols[list(LOGICAL_INDICES)]  # the code-space block
    outside = np.delete(code_cols, list(LOGICAL_INDICES), axis=0)
    code_leak = float(np.max(np.abs(outside)))
    uu = u_logical @ u_logical
    # none when uu[0, 0] is 0: then the square is no phase times the identity
    involution_defect = float(np.max(np.abs(uu / uu[0, 0] - np.eye(4)))) if uu[0, 0] else None
    results = {
        "candidates": [
            {"application_order": conv.application_order, "p_sign": conv.p_sign,
             "passed": rep.passed,
             "worst_probability": min(r.probability for r in rep.rows)}
            for conv, rep, _ in search
        ],
        "truth_table": [
            {"input": r.input_state, "expected": r.expected, "observed": r.observed,
             "probability": r.probability, "phase": _c2l(r.phase)}
            for r in report.rows
        ],
        "sequence_length": len(seq.gates),
        "code_space_leak": code_leak,
        "involution_defect": involution_defect,
    }
    flags = {
        "truth_table": report.passed,
        "unitary": unitary_defect(u_logical) < UNITARY_ATOL,
        "code_space_preserved": code_leak < 1e-12,
        "squares_to_identity_up_to_phase": involution_defect is not None and involution_defect < 1e-10,
    }
    return results, flags, _convention_dict(seq)


def _run_bell(c: ExperimentConfig) -> tuple[dict, dict, dict]:
    rows = []
    all_ok = True
    for label in BellLabel:
        observed, best = bell_measure(prepare_bell(label))
        ok = observed is label and best.probability >= 1 - 1e-12
        all_ok &= ok
        rows.append({"input": label.value,
                     "observed": observed.value if observed else "non-Bell",
                     "outcome": "".join(best.outcomes),
                     "probability": best.probability,
                     "correct": ok})
    results = {"discrimination": rows,
               "map_pulse_area": np.pi / 4,
               "csv_table": (["input", "observed", "outcome", "probability"],
                             [[r["input"], r["observed"], r["outcome"], r["probability"]]
                              for r in rows])}
    return results, {"all_labels_correct": all_ok}, {}


def _deviation_from_1(a) -> np.float64:
    """max |a - 1| over an array from its two extremes: a - 1 rounds monotonically in a,
    so this is np.max(np.abs(a - 1.0)) bit for bit, with no array temporaries."""
    return max(a.max() - 1.0, 1.0 - a.min())


def _run_teleport(c: ExperimentConfig) -> tuple[dict, dict, dict]:
    thetas = np.linspace(0.0, 2 * np.pi, c.theta_points, endpoint=False)
    delays = np.linspace(0.0, c.delay_max, c.delay_points)
    # collective phases from the standard library's generator: no dfs branch depends on them,
    # bit for bit, so they never reach the report (and no run loads numpy.random)
    bits = random.Random(c.seed).randbytes(4 * thetas.size * delays.size)
    dephases = np.frombuffer(bits, dtype="<u4").reshape(thetas.size, delays.size) * (2 * np.pi / 2**32)
    branches = teleport(thetas[:, None], delays[None, :], "dfs", atom_splitting=c.atom_splitting,
                        dephase_phi=dephases)[1].branches
    worst = max(_deviation_from_1(b.fidelity) for b in branches)
    prob_defect = _deviation_from_1(sum(b.probability for b in branches))
    bare_fid, _ = teleport(np.pi / 2, np.pi / c.atom_splitting, "bare",
                           atom_splitting=c.atom_splitting)
    fid_single, rep_single = teleport(c.theta, c.delay_T, "dfs",
                                      atom_splitting=c.atom_splitting, seed=c.seed)
    results = {
        "grid": {"theta_points": c.theta_points, "delay_points": c.delay_points,
                 "delay_max": c.delay_max, "atom_splitting": c.atom_splitting},
        "max_branch_deviation_from_1": worst,
        "branch_probability_defect": prob_defect,
        "bare_comparison": {"theta": np.pi / 2,
                            "splitting_times_delay": np.pi,
                            "fidelity": bare_fid},
        "single_run": {"theta": c.theta, "delay_T": c.delay_T,
                       "average_fidelity": fid_single,
                       "sampled_branch": rep_single.sampled_label,
                       "sampled_fidelity": rep_single.sampled_fidelity},
    }
    flags = {
        "dfs_delay_and_dephase_immune": worst < 1e-10,
        "branch_probabilities_sum_to_1": prob_defect < 1e-12,
        "bare_comparison_dephased_to_zero": bare_fid < 1e-12,
    }
    return results, flags, {"correction_table": _correction_table()}


def _run_stagger_sweep(c: ExperimentConfig) -> tuple[dict, dict, dict]:
    rows = stagger_sweep(c.t1_fractions, pulse_area=c.pulse_area)
    t = c.pulse_area  # in units of 1/Omega
    fractions, amps, _ = np.array(rows).T
    t1 = fractions * t
    # the closed form is signed, and the reported fidelity is its magnitude
    closed_defect = float(np.max(np.abs(amps - np.abs(_closed_form(t1)))))
    order = np.argsort(fractions, kind="stable")
    diffs = np.diff(amps[order][fractions[order] <= 0.25])
    monotone = bool(np.all(diffs <= 1e-12))
    p_ref = StaggerParams(t=t, t1=c.t1_fraction * t)
    f_ref = staggered_fidelity(p_ref)
    results = {
        "pulse_area": c.pulse_area,
        "reference_point": {"t1_fraction": c.t1_fraction,
                            "fidelity_amplitude": f_ref,
                            "fidelity_squared": f_ref * f_ref,
                            "closed_form": staggered_fidelity_closed_form(p_ref)},
        "bound": 0.98,
        "bound_note": ("measured amplitude fidelity exceeds the 0.98 design bound; "
                       "the bound, not equality, is the acceptance condition"),
        "closed_form_max_defect": closed_defect,
        "rows": [list(r) for r in rows],
        "csv_table": (["t1_fraction", "fidelity_amplitude", "fidelity_squared"],
                      [list(r) for r in rows]),
    }
    flags = {
        "reference_point_above_bound": f_ref >= 0.98,
        "closed_form_consistent": closed_defect < 1e-12,
        "monotone_nonincreasing": monotone,
    }
    return results, flags, {}


def _run_thermal(c: ExperimentConfig) -> tuple[dict, dict, dict]:
    grid = np.linspace(0.0, c.nbar_max, c.nbar_points)
    values = fock_averaged_fidelity(grid, c.pulse_area)
    diffs = np.diff(values)
    f_single = fock_averaged_fidelity(c.nbar, c.pulse_area)
    table = np.column_stack([grid, values]).tolist()
    results = {
        "pulse_area": c.pulse_area,
        "nbar": c.nbar,
        "fidelity_at_nbar": f_single,
        "table": table,
        "csv_table": (["nbar", "fidelity"], table),
    }
    flags = {
        "fidelity_at_zero_is_one": abs(values[0] - 1.0) < 1e-12,
        "non_increasing_in_nbar": bool(np.all(diffs <= 1e-12)),
    }
    return results, flags, {}


def _run_validate_effective(c: ExperimentConfig) -> tuple[dict, dict, dict]:
    from .validate import GUARD_LEAKAGE_MAX, RabiFitError, compare_effective_models, extract_rabi

    runs = []
    for ratio in c.delta_over_G:
        params = SystemParams(G=c.G, delta=ratio * c.G, n_max=c.n_max)
        try:
            run = extract_rabi(params, n=0)
        except RabiFitError as err:
            run = err.run
        comparison = compare_effective_models(params, n=0)
        runs.append({
            **asdict(run),
            "delta_over_G": float(ratio),
            "deviation_from_3x_expected":
                float(abs(run.omega_fit - 3 * run.omega_expected) / (3 * run.omega_expected))
                if np.isfinite(run.omega_fit) else None,
            "fit_gate_fired": run.diagnostic is not None,
            "comparison": {
                "max_infidelity_pair_swap_vs_full": comparison.max_infidelity_pair_swap,
                "max_infidelity_derived_vs_full": comparison.max_infidelity_derived,
                "derived_tracks_full_better": comparison.derived_tracks_full_better,
                "internal_consistency_defect": comparison.internal_consistency_defect,
                "difference_entries": [
                    {"row": row, "col": col, "value": _c2l(value)}
                    for row, col, value in comparison.difference_entries
                ],
                "difference_nonempty": comparison.difference_nonempty,
            },
        })
    by_ratio = [runs[k] for k in np.argsort(c.delta_over_G, kind="stable")]  # the trend flags' order
    deviations = [r["relative_deviation"] for r in by_ratio]
    derived_infidelities = [r["comparison"]["max_infidelity_derived_vs_full"] for r in by_ratio]
    dev_decreasing = all(np.isfinite(d) for d in deviations) and \
        all(b < a for a, b in zip(deviations, deviations[1:]))
    results = {
        "runs": runs,
        "recorded_difference_status": "nonempty",
        "notes": (
            "the exact model confines the egeg->gege transfer to about 1/9 because the "
            "interaction couples every two-excitation configuration to the same virtual "
            "intermediates; the fitted population frequency converges to three times the "
            "pair-exchange rate, so its deviation from that rate grows with delta/G"
        ),
        "csv_table": (
            ["delta_over_G", "omega_expected", "omega_fit", "relative_deviation",
             "peak_population", "max_infidelity_pair_swap", "max_infidelity_derived"],
            [[r["delta_over_G"], r["omega_expected"], r["omega_fit"],
              r["relative_deviation"], r["peak_population"],
              r["comparison"]["max_infidelity_pair_swap_vs_full"],
              r["comparison"]["max_infidelity_derived_vs_full"]] for r in runs],
        ),
    }
    flags = {
        "unitarity_ok": all(r["unitarity_defect"] < 1e-10 for r in runs),
        "normalization_ok": all(r["normalization_defect"] < 1e-10 for r in runs),
        "guard_levels_empty": all(r["guard_leakage"] < GUARD_LEAKAGE_MAX for r in runs),
        "difference_nonempty_as_recorded":
            all(r["comparison"]["difference_nonempty"] for r in runs),
        "derived_tracks_full_better":
            all(r["comparison"]["derived_tracks_full_better"] for r in runs),
        "derived_infidelity_decreasing":
            all(b < a for a, b in zip(derived_infidelities, derived_infidelities[1:])),
        "fit_gate_passed": all(not r["fit_gate_fired"] for r in runs),
        "pair_rabi_deviation_decreasing": bool(dev_decreasing),
    }
    return results, flags, {}


def _run_durations(c: ExperimentConfig) -> tuple[dict, dict, dict]:
    params = c.system_params()
    seq = compile_cnot()
    report = schedule_duration(seq, params)
    order = int(np.round(np.log10(report.cnot_time_aggregate)))
    results = {
        "entangle_time_s": report.entangle_time,
        "cnot_time_aggregate_s": report.cnot_time_aggregate,
        "per_gate_s": list(report.per_gate),
        "bottom_up_total_s": report.bottom_up_total,
        "aggregate_minus_bottom_up_s": report.discrepancy,
        "p_gate_duration_s": P_GATE_DURATION,
        "lifetime_s": report.lifetime,
        "cnot_over_lifetime": report.cnot_over_lifetime,
        "csv_table": (["quantity", "seconds"],
                      [["entangle_time", report.entangle_time],
                       ["cnot_time_aggregate", report.cnot_time_aggregate],
                       ["bottom_up_total", report.bottom_up_total],
                       ["aggregate_minus_bottom_up", report.discrepancy]]),
    }
    flags = {
        "entangle_matches_reference": abs(report.entangle_time - 1.33e-5) <= 0.01 * 1.33e-5,
        "cnot_matches_reference": abs(report.cnot_time_aggregate - 9.31e-5) <= 0.01 * 9.31e-5,
        "order_of_magnitude_1e-4": order == -4,
        "lifetime_margin_below_1pct": report.cnot_over_lifetime < 0.01,
    }
    return results, flags, _convention_dict(seq)


_RUNNERS = {
    "entangle": _run_entangle,
    "cnot-verify": _run_cnot_verify,
    "bell": _run_bell,
    "teleport": _run_teleport,
    "stagger-sweep": _run_stagger_sweep,
    "thermal": _run_thermal,
    "validate-effective": _run_validate_effective,
    "durations": _run_durations,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    if config.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    results, flags, conventions = _RUNNERS[config.experiment](config)
    return ExperimentReport(
        config=_config_echo(config),
        experiment=config.experiment,
        library_version=__version__,
        conventions=conventions,
        results=results,
        flags=flags,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dfscavity",
        description="Run a named experiment and emit a deterministic report.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="report path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), help="report format")
    parser.add_argument("--seed", type=int, help="PRNG seed for sampled branches")
    args = parser.parse_args(argv)

    try:
        text = ""
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        config = parse_config(text, experiment=args.experiment)
        overrides = {key: value for key, value in (("seed", args.seed), ("format", args.format))
                     if value is not None}
        if overrides:
            config = _check_config(replace(config, **overrides))
    except (ConfigError, OSError, UnicodeDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        report = run_experiment(config)
    except NoPassingConvention as err:  # durations: no convention to report the times under
        print(f"{config.experiment}: error: {err}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started

    payload = report.to_json() if config.format == "json" else report.to_csv()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as err:
            print(f"output error: cannot write {args.out!r}: {err.strerror}", file=sys.stderr)
            return 2
    else:
        try:  # flushed here, so a closed pipe or a full disk cannot fail later, at shutdown
            sys.stdout.write(payload)
            sys.stdout.flush()
        except OSError as err:
            print(f"output error: cannot write to stdout: {err.strerror}", file=sys.stderr)
            return 2
    status = "PASS" if report.passed else "FAIL"
    print(f"{config.experiment}: {status} in {elapsed:.2f} s", file=sys.stderr)
    return 0 if report.passed else 1


def exit_main() -> None:
    """Run `main` and exit the process with its status: `python -m dfscavity.cli`
    and the `dfscavity` script. The collector is frozen first, so the interpreter's
    shutdown does not walk again the objects that numpy and the package made;
    `main` itself never freezes, because tests call it in-process."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    exit_main()
