"""The benchmark tracer runs over one pass of each in-process workload call.

`perfbench/tracer.py` computes a tag from some wrapped calls: `_dim_cubed`
reads `.dim` from the first argument of the eigh routes, `_experiment` the
config's experiment. A tag function that raises does so inside the traced
call, so an argument of the wrong type would fail only at benchmark time.
This runs the calls of every workload in-process, as the traced worker does
(a cli-defaults call through `run_experiment`), under `instrument`, and pins
the count metrics of the exact-scaled and protocol-sweeps passes, and the
exact-scaled pass's `eigh` work. The tracer
and the workloads are loaded by path and left unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dfscavity import cli, validate
from dfscavity.hilbert import SystemParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _traced_pass(workload):
    """The spans of one pass of `workload` at seed 0, each call run in-process."""
    recorder = tracer.Tracer()
    with tracer.instrument(recorder):
        for call in workloads.calls(workload, 0):
            config = cli.parse_config(call.config_text, call.experiment)
            if call.api == "forced_rabi_fit":
                validate.forced_rabi_fit(SystemParams(G=config.G, delta=config.delta_over_G[0] * config.G,
                                                      n_max=config.n_max))
            else:
                cli.run_experiment(config)
    return recorder.spans


@pytest.fixture(scope="module")
def spans():
    return {workload: _traced_pass(workload) for workload in workloads.WORKLOADS}


def test_every_tag_function_reached_gives_a_tag(spans):
    tag_fns = {f"{module}.{name}": fn for module, name, fn in tracer.FUNCTIONS if fn is not None}
    reached = {}
    for workload_spans in spans.values():
        for name, _, _, _, tag in workload_spans:
            if name in tag_fns:
                assert tag is not None, name
                reached[name] = tag_fns[name]
    assert set(reached) >= {"cli.run_experiment", "dynamics.evolve_exact", "dynamics.evolve_times",
                            "dynamics.make_propagator"}
    assert {fn.__name__ for fn in reached.values()} >= {"_experiment", "_dim_cubed"}


@pytest.mark.parametrize("workload,operators,eighs", [
    ("exact-scaled", 13, 13),
    ("protocol-sweeps", 0, 0),
])
def test_count_metrics(spans, workload, operators, eighs):
    metrics = tracer.layer_metrics(spans[workload], workloads.EXPERIMENTS)
    assert metrics["hilbert.operator_constructions"] == operators
    assert metrics["dynamics.eigh_calls"] == eighs


def test_exact_scaled_eigh_work(spans):
    # sum of dim^3 over the pass's eigh calls: per delta/G of the n_max 16 validate-effective,
    # 7^3 for each of the two exact runs, 16^3 for the pair-swap operator and 6^3 for the
    # derived one; plus 7^3 for the forced Rabi fit at n_max 32
    metrics = tracer.layer_metrics(spans["exact-scaled"], workloads.EXPERIMENTS)
    assert metrics["dynamics.eigh_work"] == 3 * (2 * 7**3 + 16**3 + 6**3) + 7**3 == 15337
