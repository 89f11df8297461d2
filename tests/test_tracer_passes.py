"""The benchmark tracer runs over one pass of each in-process workload call.

`perfbench/tracer.py` computes a tag from some wrapped calls: `_dim_cubed`
reads `.dim` from the first argument of the eigh routes, `_experiment` the
config's experiment. A tag function that raises does so inside the traced
call, so an argument of the wrong type would fail only at benchmark time.
This runs the calls of every workload in-process, as the traced worker does
(a cli-defaults call through `run_experiment`), under `instrument`, and pins
the count metrics of the exact-scaled and protocol-sweeps passes, and the
exact-scaled pass's `eigh` work. No workload reaches the eigh routes (every
runtime spectrum is closed-form), so `_dim_cubed` is called directly. The tracer
and the workloads are loaded by path and left unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from dfscavity import cli, validate
from dfscavity.hilbert import Operator, SystemParams

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
    assert "cli.run_experiment" in reached
    assert not set(reached) & set(tracer.EIGH)  # the eigh routes are test oracles only
    assert {fn.__name__ for fn in reached.values()} >= {"_experiment"}


def test_dim_cubed_reads_the_generator_dimension():
    assert tracer._dim_cubed((Operator(np.eye(7)), 1.0), {}, None) == 343


@pytest.mark.parametrize("workload,operators,eighs", [
    ("exact-scaled", 3, 0),  # one pair-swap operator (build_h_eff) per delta/G of validate-effective
    ("protocol-sweeps", 0, 0),
])
def test_count_metrics(spans, workload, operators, eighs):
    metrics = tracer.layer_metrics(spans[workload], workloads.EXPERIMENTS)
    assert metrics["hilbert.operator_constructions"] == operators
    assert metrics["dynamics.eigh_calls"] == eighs


def test_exact_scaled_eigh_work(spans):
    # sum of dim^3 over the pass's eigh calls: the exact runs, the pair-swap operator and the
    # derived one all take closed-form spectra
    metrics = tracer.layer_metrics(spans["exact-scaled"], workloads.EXPERIMENTS)
    assert metrics["dynamics.eigh_work"] == 0
