"""Check that the working tree produces the same reports and demo output as a parent revision.

    python3 scripts/same_outputs.py --parent REV

Exports the committed files of REV and copies the working tree as it is at
start, with `export_tree` and `snapshot_worktree` of scripts/bench_pairs.py.
Then each tree produces, from its own source, 95 outputs:

* the 64 default-config reports: 8 experiments x seeds 0, 3, 7, 11 x JSON
  and CSV (`python -m dfscavity.cli <experiment> --seed S --format F`);
* at seeds 0 and 3, as JSON: the 60x60 teleport grid and the
  `nbar_max = 10` thermal report (the scaled configs of the protocol-sweeps
  benchmark), validate-effective at `n_max = 16` (the exact-scaled
  benchmark's config) and `n_max = 64`, validate-effective at
  `delta_over_G = 5, 10, 20, 40, 80` (more peak candidates for the Rabi
  fit), and entangle with an explicit, consistent `omega_a`/`omega` pair;
* the stderr of the eleven out-of-range configs of tests/test_cli.py (seven
  pair rates, two fit spans, one pair splitting below the float resolution
  of the block energies and one CNOT time), each of which exits 2, so a refactor of a domain check
  shows any change of its message;
* the stdout of every script under demos/;
* `exit-codes.txt`: the exit code of each CLI run and each demo, one line
  per run, so a change to the CLI's exit path shows even when the report
  bytes match.

Prints `same` or `DIFF` per output and exits 0 only if every output is
byte-identical. A JSON DIFF also names its largest numeric deviation and
whether the flags match (`describe` of scripts/goldens.py). This is the
check a pure refactor must pass. Both temporary trees are removed at the end.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_tree, git, snapshot_worktree  # noqa: E402
from goldens import EXPERIMENTS, describe  # noqa: E402

SEEDS = (0, 3, 7, 11)
SCALED_SEEDS = (0, 3)
SCALED = {"teleport-60x60": ("teleport", "theta_points = 60\ndelay_points = 60\n"),
          "thermal-nbar10": ("thermal", "nbar_max = 10\n"),
          "validate-nmax16": ("validate-effective", "n_max = 16\n"),
          "validate-nmax64": ("validate-effective", "n_max = 64\n"),
          "validate-ratios": ("validate-effective", "delta_over_G = 5, 10, 20, 40, 80\n"),
          "entangle-frequencies": ("entangle", "delta = 3e6\nomega_a = 7.0\nomega = 1500007.0\n")}
OUT_OF_RANGE = {  # the configs of tests/test_cli.py's out-of-range tests
    **{f"pair-rate-G{g}-{exp}": (exp, f"G = {g}\n")
       for g in ("1e200", "1e-200") for exp in ("entangle", "durations", "validate-effective")},
    "pair-rate-delta1e-300-entangle": ("entangle", "delta = 1e-300\n"),
    "fit-span-subnormal-rate": ("validate-effective", "G = 1e-100\ndelta_over_G = 1e210\n"),
    "fit-span-underflow": ("validate-effective", "G = 1e100\ndelta_over_G = 1e-150\n"),
    "pair-splitting-unresolved": ("validate-effective", "delta_over_G = 1e8\n"),
    "cnot-time-overflow": ("durations", "G = 1e-100\ndelta = 1e110\n"),
}


def produce(tree: Path, out: Path) -> list[str]:
    """Write every output of `tree`, run from its own src/, as a file under
    `out`, and return the file names expected there. A report is whatever
    the CLI wrote (validate-effective exits 1 by design); an out-of-range
    config's output is the CLI's stderr; a demo's stdout is written only when
    the demo exits 0. Every run's exit code goes to `exit-codes.txt`."""
    out.mkdir(parents=True)
    names, codes = [], []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)

    def run(*args: str) -> subprocess.CompletedProcess:
        proc = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True)
        codes.append(f"{names[-1]} {proc.returncode}\n")
        return proc

    for exp in EXPERIMENTS:
        for seed in SEEDS:
            for fmt in ("json", "csv"):
                names.append(f"{exp}-seed{seed}.{fmt}")
                run("-m", "dfscavity.cli", exp, "--seed", str(seed), "--format", fmt,
                    "--out", str(out / names[-1]))
    for name, (exp, text) in SCALED.items():
        config = out / f"{name}.cfg"
        config.write_text(text, encoding="utf-8")
        for seed in SCALED_SEEDS:
            names.append(f"{name}-seed{seed}.json")
            run("-m", "dfscavity.cli", exp, "--config", str(config), "--seed", str(seed),
                "--out", str(out / names[-1]))
        config.unlink()
    for name, (exp, text) in OUT_OF_RANGE.items():
        config = out / f"{name}.cfg"
        config.write_text(text, encoding="utf-8")
        names.append(f"config-error-{name}.txt")
        proc = run("-m", "dfscavity.cli", exp, "--config", str(config))
        (out / names[-1]).write_text(proc.stderr, encoding="utf-8")
        config.unlink()
    for demo in sorted((tree / "demos").glob("*.py")):
        names.append(f"demo-{demo.stem}.txt")
        proc = run(str(demo.relative_to(tree)))
        if proc.returncode == 0:
            (out / names[-1]).write_text(proc.stdout, encoding="utf-8")
    names.append("exit-codes.txt")
    (out / names[-1]).write_text("".join(codes), encoding="utf-8")
    return names


def compare(parent: Path, change: Path, names) -> list[tuple[str, bool, str]]:
    """(name, same, detail) for each output file name, comparing the file
    under `parent` with the one under `change`."""
    rows = []
    for name in sorted(set(names)):
        old, new = parent / name, change / name
        if not (old.is_file() and new.is_file()):
            missing = [side for side, f in (("parent", old), ("change", new)) if not f.is_file()]
            rows.append((name, False, f"missing in {' and '.join(missing)}"))
        elif old.read_bytes() == new.read_bytes():
            rows.append((name, True, ""))
        elif name.endswith(".json"):
            rows.append((name, False, describe(new, old)))
        else:
            a, b = old.read_text(encoding="utf-8").splitlines(), new.read_text(encoding="utf-8").splitlines()
            first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            rows.append((name, False, f"first difference at line {first + 1}"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    parent_sha = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_tree(parent_sha, trees["parent"])
        snapshot_worktree(ROOT, trees["change"])
        names = [name for side, tree in trees.items() for name in produce(tree, Path(tmp) / f"out-{side}")]
        rows = compare(Path(tmp) / "out-parent", Path(tmp) / "out-change", names)
    for name, same, detail in rows:
        print(f"same  {name}" if same else f"DIFF  {name}  {detail}")
    differ = sum(not same for _, same, _ in rows)
    print(f"{len(rows) - differ} of {len(rows)} outputs same as {parent_sha[:12]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
