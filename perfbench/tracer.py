"""In-memory spans around calls into the dfscavity modules, and the per-layer
metrics derived from them.

`instrument` wraps a fixed set of public functions in every package namespace
where callers look them up (for example both `model.build_full_hamiltonian`
and `validate.build_full_hamiltonian`), plus `Operator` construction and
report emission. Each wrapped call records a span: name, start, end, parent
and an optional tag (a work figure or the experiment name). Nothing is
written until the benchmark asks for it at the end. A span's self time is its
duration minus the time its child spans cover; calls are sequential, so the
children of a span never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "hilbert", "model", "dynamics", "validate", "gates", "bell_teleport", "errors")

# spans opened by the benchmark itself (a pass and its calls) start with this
BENCH = "bench"


def _dim_cubed(args, kwargs, result):
    return args[0].dim ** 3


def _dense_bytes(args, kwargs, result):
    return args[0].dim ** 2 * 16


def _sectors(args, kwargs, result):
    return len(result)


def _experiment(args, kwargs, result):
    return args[0].experiment


# (module, function, tag computed from the call) for each wrapped function
FUNCTIONS = (
    ("cli", "run_experiment", _experiment),
    ("cli", "parse_config", None),
    ("model", "build_h0", _dense_bytes),
    ("model", "build_hint", _dense_bytes),
    ("model", "build_full_hamiltonian", _dense_bytes),
    ("model", "build_h_eff", None),
    ("model", "derive_second_order", None),
    ("model", "two_excitation_manifold", None),
    ("dynamics", "evolve_exact", _dim_cubed),
    ("dynamics", "evolve_times", _dim_cubed),
    ("dynamics", "make_propagator", _dim_cubed),
    ("dynamics", "dfs_propagate", None),
    ("validate", "extract_rabi", None),
    ("validate", "forced_rabi_fit", None),
    ("validate", "compare_effective_models", None),
    ("validate", "effective_difference_entries", None),
    ("gates", "r_gate_atomic", None),
    ("gates", "compile_cnot", None),
    ("gates", "convention_search", None),
    ("gates", "sequence_unitary_logical", None),
    ("gates", "sequence_unitary_atomic", None),
    ("gates", "verify_truth_table", None),
    ("gates", "schedule_duration", None),
    ("bell_teleport", "teleport", None),
    ("bell_teleport", "enumerate_bell_branches", None),
    ("bell_teleport", "prepare_bell", None),
    ("errors", "fock_averaged_fidelity", None),
    ("errors", "thermal_weights", _sectors),
    ("errors", "stagger_sweep", None),
    ("errors", "staggered_fidelity", None),
)

# (module, class, method, span name): construction checks and report emission
METHODS = (
    ("hilbert", "Operator", "__post_init__", "hilbert.Operator"),
    ("cli", "ExperimentReport", "to_json", "cli.report_emit"),
)


class Tracer:
    """Spans as [name, start, end, parent index, tag], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, tag=None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = tag
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str, tag_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, tag_fn(args, kwargs, result) if tag_fn and result is not None else None)
        return traced


@contextmanager
def instrument(tracer: Tracer, package: str = "dfscavity", functions=FUNCTIONS, methods=METHODS):
    """Wrap `functions` and `methods` of `package` for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    patches = []  # (owner, attribute, original)
    for module_name, attr, tag_fn in functions:
        original = getattr(by_name[module_name], attr)
        wrapper = tracer.wrap(original, f"{module_name}.{attr}", tag_fn)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                patches.append((module, key, original))
                setattr(module, key, wrapper)
    for module_name, cls_name, method, span_name in methods:
        cls = getattr(by_name[module_name], cls_name)
        original = cls.__dict__[method]
        patches.append((cls, method, original))
        setattr(cls, method, tracer.wrap(original, span_name))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


EIGH = ("dynamics.evolve_times", "dynamics.make_propagator", "dynamics.evolve_exact")
DENSE = ("model.build_h0", "model.build_hint", "model.build_full_hamiltonian")


def _counts(spans: list[list]) -> dict[str, float]:
    """Count metrics: calls of a function, or the sum of its tags."""
    count = defaultdict(int)
    tags = defaultdict(float)
    for name, _, _, _, tag in spans:
        count[name] += 1
        if isinstance(tag, (int, float)):
            tags[name] += tag
    return {
        "hilbert.operator_constructions": count["hilbert.Operator"],
        "model.build_hint_calls": count["model.build_hint"],
        "model.hamiltonian_bytes": sum(tags[n] for n in DENSE),
        "dynamics.eigh_calls": sum(count[n] for n in EIGH),
        "dynamics.eigh_work": sum(tags[n] for n in EIGH),
        "dynamics.dfs_propagate_calls": count["dynamics.dfs_propagate"],
        "gates.r_gate_atomic_calls": count["gates.r_gate_atomic"],
        "bell_teleport.teleport_calls": count["bell_teleport.teleport"],
        "errors.thermal_sectors": tags["errors.thermal_weights"],
    }


def layer_metrics(spans: list[list], experiments) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see run.PER_LAYER for units)."""
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    inclusive = defaultdict(float)
    for (name, start, end, _, tag), own in zip(spans, self_times(spans)):
        self_s[name] += own
        layer_self[name.partition(".")[0]] += own
        if name == "cli.run_experiment":
            inclusive[tag] += end - start
    metrics = {
        **_counts(spans),
        "cli.run_experiment_s": sum(inclusive.values()),
        **{f"cli.run_experiment_s.{exp}": inclusive[exp] for exp in experiments},
        "cli.report_emit_s": self_s["cli.report_emit"],
        "hilbert.operator_check_s": self_s["hilbert.Operator"],
        "model.build_hint_s": self_s["model.build_hint"],
        "model.build_full_hamiltonian_s": self_s["model.build_full_hamiltonian"],
        "model.derive_second_order_s": self_s["model.derive_second_order"],
        "dynamics.evolve_times_s": self_s["dynamics.evolve_times"],
        "dynamics.make_propagator_s": self_s["dynamics.make_propagator"],
        "dynamics.dfs_propagate_s": self_s["dynamics.dfs_propagate"],
        "validate.extract_rabi_s": self_s["validate.extract_rabi"],
        "validate.compare_effective_models_s": self_s["validate.compare_effective_models"],
        "gates.r_gate_atomic_s": self_s["gates.r_gate_atomic"],
        "bell_teleport.teleport_s": self_s["bell_teleport.teleport"],
        "errors.fock_averaged_fidelity_s": self_s["errors.fock_averaged_fidelity"],
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "trace.unattributed_s": layer_self[BENCH],
    }
    return {name: float(value) for name, value in metrics.items()}


def per_call_counts(spans: list[list]) -> dict[str, dict[str, float]]:
    """Count metrics within the subtree of each `bench.call.<label>` span."""
    prefix = f"{BENCH}.call."
    owner = [-1] * len(spans)
    groups = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(spans):
        owner[i] = i if name.startswith(prefix) else (owner[parent] if parent >= 0 else -1)
        if owner[i] >= 0:
            groups[spans[owner[i]][0][len(prefix):]].append(spans[i])
    return {label: _counts(group) for label, group in groups.items()}
