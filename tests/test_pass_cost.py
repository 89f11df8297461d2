"""`scripts/pass_cost.py` in fresh processes: one exact-scaled pass, one protocol-sweeps
pass, its OpenBLAS resident size, and the usage errors; the --against table from canned runs."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "pass_cost.py"
EXPERIMENTS = ("entangle", "cnot-verify", "bell", "teleport", "stagger-sweep", "thermal",
               "validate-effective", "durations")  # cli-defaults' calls, perfbench/workloads.py


def _pass_cost(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)


def test_one_exact_scaled_pass_runs_on_one_thread():
    run = _pass_cost("--workload", "exact-scaled", "--passes", "1")
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[1].split() == ["call", "wall", "ms", "(median)", "(min)", "CPU/wall", "minflt", "(median)",
                                "peak", "KiB"]
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:5]}
    assert list(rows) == ["validate-effective", "forced_rabi_fit", "pass"]
    wall_ms, wall_min, cpu_per_wall, faults, peak_kib = rows["pass"]
    assert 0 < wall_min <= wall_ms
    # each call's traced peak; the pass's is its largest call's, give or take what the
    # worker holds between calls
    call_peaks = [rows[label][-1] for label in ("validate-effective", "forced_rabi_fit")]
    assert all(0 < peak < 2048 for peak in call_peaks)
    assert max(call_peaks) <= peak_kib < max(call_peaks) + 64
    # the Rabi fit and the comparison keep no (times x frequencies) array, so no call pushes
    # glibc's heap top past its trim threshold and a warm pass faults no pages back in; the
    # table route read 432 minor faults per pass
    assert faults < 50
    # no product of the pass goes to OpenBLAS's thread pool, whose threads would
    # spin on and read about 2 here on two cores
    assert cpu_per_wall <= 1.1
    assert run.stdout.splitlines()[-1] == "failed checks: 0"
    blas_line = run.stdout.splitlines()[-3]
    assert blas_line.startswith("OpenBLAS resident: ") and blas_line.endswith(" KiB (self, /proc/self/smaps)")


def test_openblas_resident_size_shows_a_lapack_call():
    # numpy's first LAPACK call faults in about 1 MiB of OpenBLAS code pages that a
    # product leaves out; measured in a fresh process, before and after each
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
            "from pass_cost import resident_kib; np.eye(8) @ np.eye(8); before = resident_kib('openblas')[0]; "
            "np.linalg.eigh(np.eye(8) + 0j); print(before, resident_kib('openblas')[0])")
    run = subprocess.run([sys.executable, "-c", code, str(SCRIPT.parent)], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    before, after = map(int, run.stdout.split())
    assert before > 0 and after - before >= 512


@pytest.fixture(scope="module")
def protocol_sweeps_pass():
    """One warm-up and one timed protocol-sweeps pass, shared by the tests that read it."""
    return _pass_cost("--workload", "protocol-sweeps", "--passes", "1")


def test_a_warm_protocol_sweeps_pass_faults_no_pages_back_in(protocol_sweeps_pass):
    run = protocol_sweeps_pass
    assert run.returncode == 0, run.stdout + run.stderr
    rows = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines()[2:8]}
    assert list(rows) == ["teleport", "thermal", "stagger-sweep", "cnot-verify", "bell", "pass"]
    # a teleport call that frees a full-grid complex temporary (230 KB at 60 x 60) lets glibc
    # trim the heap top, and each trimmed page faults back in on the next pass (about 80)
    assert float(rows["pass"][-2]) < 10


def test_names_the_modules_the_warm_up_pass_imports(protocol_sweeps_pass):
    run = protocol_sweeps_pass
    assert run.returncode == 0, run.stdout + run.stderr
    line = run.stdout.splitlines()[-2]
    count, _, names = line.removeprefix("warm-up imports: ").partition(": ")
    imported = names.split(", ") if names else []
    assert int(count) == len(imported)
    # the teleport grid draws from the standard library's generator and its branch
    # with the package's own PCG64, so no layer of the pass loads numpy.random
    assert not [name for name in imported if name.startswith(("numpy.random", "scipy", "numpy.ma"))]


def test_prints_each_calls_traced_peak(protocol_sweeps_pass):
    run = protocol_sweeps_pass
    assert run.returncode == 0, run.stdout + run.stderr
    rows = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines()[2:8]}
    peaks = {label: float(row[-1]) for label, row in rows.items()}
    # the 60 x 60 teleport grid with both channels sets the pass's peak (about 523 KiB;
    # tests/test_bell_teleport.py bounds it at 600 KiB)
    assert 256 < peaks["teleport"] < 600
    others = [peaks[label] for label in ("thermal", "stagger-sweep", "cnot-verify", "bell")]
    assert all(0 < peak < peaks["teleport"] for peak in others)
    assert peaks["teleport"] <= peaks["pass"] < peaks["teleport"] + 64


def test_cli_process_calls_have_no_traced_peak():
    # a cli call runs in its own process, so its traced peak reads "-", as does the pass, and
    # no pass runs under tracemalloc; canned calls stand in for the eight processes
    code = ("import sys, tracemalloc; sys.path[:0] = sys.argv[1:]; import pass_cost, worker; traced = []; "
            "worker.Runner.run_cli = lambda self, call: traced.append(tracemalloc.is_tracing()) or []; "
            "code = pass_cost.measure(pass_cost.ROOT, 'cli-defaults', 2); "
            "print(code, traced.count(False), any(traced))")
    paths = [str(SCRIPT.parent), str(ROOT / "perfbench"), str(ROOT / "src")]
    run = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True, cwd=ROOT,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    rows = [line.split() for line in lines[2:11]]
    assert [row[0] for row in rows] == [*EXPERIMENTS, "pass"]
    assert all(row[-1] == "-" for row in rows)
    assert lines[-1] == "0 24 False"  # the warm-up and two timed passes of eight calls


def test_rejects_an_unknown_workload_and_no_passes():
    for args in (("--workload", "no-such"), ("--workload", "exact-scaled", "--passes", "0")):
        run = _pass_cost(*args)
        assert run.returncode == 2
        assert "error" in run.stderr


def test_rejects_a_bad_checkout_or_run_count(tmp_path):
    # each is a usage error, found before any run starts
    for args in (("--against", str(tmp_path)),                    # no checkout there
                 ("--against", str(tmp_path / "missing")),
                 ("--tree", str(tmp_path)),
                 ("--against", str(ROOT), "--runs", "0"),
                 ("--runs", "3"),                                  # --runs needs --against
                 ("--tree", str(ROOT), "--against", str(ROOT))):
        run = _pass_cost("--workload", "protocol-sweeps", *args)
        assert run.returncode == 2, args
        assert "error" in run.stderr and run.stdout == "", args


def test_against_prints_each_runs_median_minimum_and_faults(monkeypatch, capsys):
    # each fresh run's pass row (median, minimum, CPU/wall, minor faults), canned per tree
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    import pass_cost

    passes = {str(ROOT): [(7.1, 6.0, 0), (7.3, 6.2, 0), (9.0, 6.1, 2)],
              "/other": [(8.6, 8.1, 432), (8.5, 8.2, 436), (8.7, 8.0, 434)]}

    def fake_run(command, **kwargs):
        median, minimum, faults = passes[command[command.index("--tree") + 1]].pop(0)
        stdout = f"head\ncall\npass{median:>40.3f}{minimum:>9.3f}{1.0:>10.2f}{faults:>17.0f}\n"
        return subprocess.CompletedProcess(command, 0, stdout, "")

    monkeypatch.setattr(pass_cost.subprocess, "run", fake_run)
    assert pass_cost.alternate(Path("/other"), "exact-scaled", 4, 3) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["pair", "this", "ms", "this", "min", "ms", "this", "minflt",
                                "other", "ms", "other", "min", "ms", "other", "minflt", "first"]
    assert [line.split() for line in lines[3:6]] == [
        ["1", "7.100", "6.000", "0", "8.600", "8.100", "432", "this"],
        ["2", "7.300", "6.200", "0", "8.500", "8.200", "436", "other"],
        ["3", "9.000", "6.100", "2", "8.700", "8.000", "434", "this"]]
    assert lines[6:] == [
        "pass median, median of runs: this 7.300 ms, other 8.600 ms; wins: this 2 of 3, other 1 of 3",
        "pass minimum, median of runs: this 6.100 ms, other 8.100 ms; wins: this 3 of 3, other 0 of 3",
        "minflt per pass, median of runs: this 0, other 434"]
