"""Every name the benchmark tracer wraps still exists in the package.

`perfbench/tracer.py` looks its functions and methods up by name when a
benchmark pass starts, so deleting or renaming one of them would otherwise
fail only at benchmark time, with an AttributeError or KeyError inside
`instrument`. The tracer is loaded by path and left unchanged.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_cli_and_validate_load_every_wrapped_module():
    # `instrument` looks the wrapped modules up in sys.modules, and the benchmark
    # worker imports only these two, so they must bring in the rest
    wrapped = {m for m, _, _ in tracer.FUNCTIONS} | {m for m, _, _, _ in tracer.METHODS}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys\nfrom dfscavity import cli, validate\nprint(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    loaded = {name.removeprefix("dfscavity.") for name in out.stdout.split()
              if name.startswith("dfscavity.")}
    assert wrapped <= loaded, sorted(wrapped - loaded)
