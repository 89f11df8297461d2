"""List the library lines that the package's runtime traffic never runs.

    python3 scripts/traffic.py [--only NAME ...]

Runs, in this process and under a `sys.settrace` line trace of the modules
in src/dfscavity, every use that the repository reproduces the paper with:

* `cli:<experiment>:<format>`: `python -m dfscavity.cli <experiment> --seed 0
  --format <format>` for the eight experiments in JSON and CSV, run as
  `__main__` with `runpy`;
* `bench:<workload>:<label>`: the calls of the exact-scaled and
  protocol-sweeps benchmark workloads at seed 0 (perfbench/workloads.py),
  among them the forced Rabi fit at `n_max = 32`; the cli-defaults workload
  is the `cli:` runs;
* `demo:<name>`: every script under demos/;
* `acceptance`: tests/test_acceptance.py under pytest.

`--only` keeps the runs whose name starts with one of the given prefixes
(for example `--only cli:bell demo:01`). The trace starts before the package
is imported, so module-level lines count. A line is executable when the
compiled code has an instruction on it; a function's or class's own header
line counts under the code that defines it.

Prints each run with its exit status; then, from the call events of the same
trace, each parameter with a default of a public function or method of the
package (no part of its qualified name starts with an underscore) that every
traced call of it left at one value, with that value and the number of
calls; then per module the executable lines that no run reached, as line
ranges with the first line's source, and a total. Exits 0 when every
selected run ran (a run's own failure, such as validate-effective's exit 1
or the acceptance suite's criterion 8, is reported, not fatal) and 2 when
`--only` selects nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import io
import os
import runpy
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "dfscavity"
EXPERIMENTS = (
    "entangle", "cnot-verify", "bell", "teleport",
    "stagger-sweep", "thermal", "validate-effective", "durations",
)
BENCH_WORKLOADS = ("exact-scaled", "protocol-sweeps")
SEED = 0


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


def _cli_run(experiment: str, fmt: str, out: Path) -> int:
    argv = sys.argv
    sys.argv = ["dfscavity", experiment, "--seed", str(SEED), "--format", fmt, "--out", str(out)]
    try:
        runpy.run_module("dfscavity.cli", run_name="__main__")
    except SystemExit as done:
        return done.code
    finally:
        sys.argv = argv
    return 0


def _bench_run(call) -> int:
    from dfscavity.cli import parse_config, run_experiment
    from dfscavity.hilbert import SystemParams
    from dfscavity.validate import forced_rabi_fit

    config = parse_config(call.config_text, call.experiment)
    if call.api == "forced_rabi_fit":
        forced_rabi_fit(SystemParams(G=config.G, delta=config.delta_over_G[0] * config.G,
                                     n_max=config.n_max))
        return 0
    report = run_experiment(config)
    report.to_dict()
    return 0 if report.passed else 1


def _demo_run(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def _acceptance_run() -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")]))


def runs(tmp: Path) -> list[tuple[str, object]]:
    """(name, zero-argument callable returning an exit status) for every run, in order."""
    out = []
    for experiment in EXPERIMENTS:
        for fmt in ("json", "csv"):
            out.append((f"cli:{experiment}:{fmt}",
                        lambda e=experiment, f=fmt: _cli_run(e, f, tmp / f"{e}.{f}")))
    workloads = _workloads()
    for workload in BENCH_WORKLOADS:
        for call in workloads.calls(workload, SEED):
            out.append((f"bench:{workload}:{call.label}", lambda c=call: _bench_run(c)))
    for path in sorted((ROOT / "demos").glob("*.py")):
        out.append((f"demo:{path.stem}", lambda p=path: _demo_run(p)))
    out.append(("acceptance", _acceptance_run))
    return out


def executable_lines(path: Path) -> set[int]:
    """Lines of `path` that carry an instruction of its compiled code, without
    the header line of each function and class body (the defining code has it)."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    top = True
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line is not None}
        if not top:
            own.discard(code.co_firstlineno)
        top = False
        lines |= own
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def defaulted_parameters(code, namespace) -> tuple[str, tuple[str, ...]] | None:
    """("module.qualname", names of its parameters with a default) for the public
    function or method that `code` is the body of, looked up by its qualified name
    in the module namespace `namespace`; None for any other code."""
    parts = code.co_qualname.split(".")
    if any(part.startswith(("_", "<")) for part in parts):
        return None
    obj = namespace.get(parts[0])
    for part in parts[1:]:
        obj = getattr(obj, part, None)
    if getattr(getattr(obj, "__func__", obj), "__code__", None) is not code:
        return None
    names = tuple(name for name, parameter in inspect.signature(obj).parameters.items()
                  if parameter.default is not parameter.empty)
    return (f"{Path(code.co_filename).stem}.{code.co_qualname}", names) if names else None


def is_array(value) -> bool:
    return hasattr(value, "tobytes") and hasattr(value, "shape")


def value_key(value) -> tuple:
    """Equal for equal parameter values: arrays by shape, dtype and bytes, hashable
    values by type and value, anything else by type and repr."""
    if is_array(value):
        return ("array", value.shape, str(value.dtype), value.tobytes())
    try:
        hash(value)
    except TypeError:
        return (type(value), repr(value))
    return (type(value), value)


class LineTrace:
    """Records (file, line) of every line event in files under `directory` and, for
    each call of a public function or method there, the values of its parameters
    with a default."""

    def __init__(self, directory: Path):
        self.prefix = str(directory) + os.sep
        self.hits: dict[str, set[int]] = defaultdict(set)
        self.signatures: dict = {}  # code object -> defaulted_parameters
        self.calls: dict[str, int] = defaultdict(int)  # "module.qualname" -> calls
        # "module.qualname" -> parameter -> value_key -> one value with that key
        self.values: dict[str, dict[str, dict]] = defaultdict(lambda: defaultdict(dict))

    def _record_call(self, frame) -> None:
        code = frame.f_code
        if code not in self.signatures:
            self.signatures[code] = defaulted_parameters(code, frame.f_globals)
        if self.signatures[code] is None:
            return
        name, parameters = self.signatures[code]
        self.calls[name] += 1
        arguments = frame.f_locals
        for parameter in parameters:
            value = arguments[parameter]
            self.values[name][parameter].setdefault(value_key(value), value)

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        hits = self.hits[filename]
        hits.add(frame.f_lineno)
        self._record_call(frame)

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    @contextlib.contextmanager
    def active(self):
        previous = sys.gettrace()
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(previous)


def ranges(lines) -> list[tuple[int, int]]:
    """Sorted line numbers as (first, last) runs of consecutive numbers."""
    out: list[tuple[int, int]] = []
    for line in sorted(lines):
        if out and line == out[-1][1] + 1:
            out[-1] = (out[-1][0], line)
        else:
            out.append((line, line))
    return out


def single_valued(trace: LineTrace) -> list[str]:
    """The parameters with a default that every traced call left at one value."""
    rows = []
    for name in sorted(trace.values):
        for parameter, seen in trace.values[name].items():
            if len(seen) == 1:
                (value,) = seen.values()
                text = f"array of shape {value.shape}" if is_array(value) else repr(value)
                text = text if len(text) <= 60 else text[:57] + "..."
                calls = trace.calls[name]
                rows.append(f"  {name}({parameter}) = {text} in {calls} call{'s' * (calls != 1)}")
    return [f"parameters with a default that every traced call left at one value: {len(rows)}"] + rows


def report(trace: LineTrace) -> list[str]:
    """Per module: its executable lines that no run reached."""
    text = []
    total = 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        missed = executable_lines(path) - trace.hits.get(str(path), set())
        total += len(missed)
        source = path.read_text(encoding="utf-8").splitlines()
        text.append(f"{path.relative_to(ROOT / 'src')}: {len(missed)} executable lines never run")
        for first, last in ranges(missed):
            span = f"{first}" if first == last else f"{first}-{last}"
            text.append(f"  {span:>9}  {source[first - 1].strip()}")
    text.append(f"total: {total} executable lines never run")
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="keep the runs whose name starts with one of these prefixes")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if "dfscavity" in sys.modules:
        raise RuntimeError("dfscavity was imported before the trace started")

    with tempfile.TemporaryDirectory() as tmp:
        selected = [(name, run) for name, run in runs(Path(tmp))
                    if not args.only or name.startswith(tuple(args.only))]
        if not selected:
            print(f"no run matches {args.only}", file=sys.stderr)
            return 2
        trace = LineTrace(PACKAGE_DIR)
        statuses = []
        with trace.active():
            for name, run in selected:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    status = run()
                statuses.append(f"run {name}: exit {status}")
    print("\n".join(statuses + single_valued(trace) + report(trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
