"""Every name the benchmark tracer wraps still exists in the package.

`perfbench/tracer.py` looks its functions and methods up by name when a
benchmark pass starts, so deleting or renaming one of them would otherwise
fail only at benchmark time, with an AttributeError or KeyError inside
`instrument`. The tracer is loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module,name", [(m, f) for m, f, _ in tracer.FUNCTIONS])
def test_wrapped_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"dfscavity.{module}"), name))


@pytest.mark.parametrize("module,cls,method", [(m, c, f) for m, c, f, _ in tracer.METHODS])
def test_wrapped_method_is_defined_on_its_class(module, cls, method):
    assert method in vars(getattr(importlib.import_module(f"dfscavity.{module}"), cls))
