"""`scripts/pass_cost.py` in fresh processes: one exact-scaled pass, one protocol-sweeps
pass, its OpenBLAS resident size, and the usage errors; the --against table from canned runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "pass_cost.py"


def _pass_cost(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)


def test_one_exact_scaled_pass_runs_on_one_thread():
    run = _pass_cost("--workload", "exact-scaled", "--passes", "1")
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[1].split() == ["call", "wall", "ms", "(median)", "(min)", "CPU/wall", "minflt", "(median)"]
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:5]}
    assert list(rows) == ["validate-effective", "forced_rabi_fit", "pass"]
    wall_ms, wall_min, cpu_per_wall, faults = rows["pass"]
    assert 0 < wall_min <= wall_ms
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


def test_names_the_modules_the_warm_up_pass_imports():
    run = _pass_cost("--workload", "protocol-sweeps", "--passes", "1")
    assert run.returncode == 0, run.stdout + run.stderr
    line = run.stdout.splitlines()[-2]
    count, _, names = line.removeprefix("warm-up imports: ").partition(": ")
    imported = names.split(", ") if names else []
    assert int(count) == len(imported)
    # the teleport grid draws from the standard library's generator and its branch
    # with the package's own PCG64, so no layer of the pass loads numpy.random
    assert not [name for name in imported if name.startswith(("numpy.random", "scipy", "numpy.ma"))]


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
