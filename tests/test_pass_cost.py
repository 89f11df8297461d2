"""`scripts/pass_cost.py` in fresh processes: one exact-scaled pass, one protocol-sweeps
pass, its OpenBLAS resident size, and the usage errors."""

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
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]]
            for line in run.stdout.splitlines()[2:5]}
    assert list(rows) == ["validate-effective", "forced_rabi_fit", "pass"]
    wall_ms, cpu_per_wall, faults = rows["pass"]
    assert wall_ms > 0 and faults >= 0
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
