"""`scripts/bench_pairs.py`: the change side runs from a snapshot of the
working tree taken at start, and every run keeps its attempted operations."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, check=True, capture_output=True)


def test_snapshot_holds_uncommitted_edits_and_not_later_ones(bench_pairs, tmp_path):
    repo, snap = tmp_path / "repo", tmp_path / "snap"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    (repo / ".gitignore").write_text("*.log\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "c")
    (repo / "pkg" / "mod.py").write_text("uncommitted\n")
    (repo / "new.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()

    bench_pairs.snapshot_worktree(repo, snap)
    (repo / "pkg" / "mod.py").write_text("edited after the snapshot\n")

    assert (snap / "pkg" / "mod.py").read_text() == "uncommitted\n"
    assert (snap / "new.py").read_text() == "untracked\n"
    assert (snap / ".gitignore").is_file()
    assert not (snap / "run.log").exists()
    assert not (snap / "gone.py").exists()


def test_runs_keep_attempted_counts_and_summary_prints_both_totals(bench_pairs, tmp_path, monkeypatch,
                                                                   capsys):
    # synthetic runs: the change attempts more operations, one of the parent's fails
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "solve_s", "better": "lower"}]}))

    def fake_run(tree, workload, seed, seconds):
        change = tree.name == "change"
        return {"metrics": {"solve_s": 1.0 if change else 2.0 + seed}, "attempted": 30 + seed if change else 20,
                "failed": 0 if change or seed else 1, "facts": {"cpu": "x"}}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "export_tree", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "snapshot_worktree", lambda root, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--parent", "p", "--workload", "w", "--out", "B.json"]) == 0

    entry = json.loads((tmp_path / "B.json").read_text())["workloads"]["w"]
    assert [r["attempted"] for r in entry["runs"]] == [{"parent": 20, "change": 30 + k} for k in range(10)]
    assert entry["ops_attempted"] == {"parent": 200, "change": 345}
    assert entry["metrics"]["solve_s"]["change_wins"] == 10
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:-1] == bench_pairs.summary_lines("w", entry)
    assert lines[-3].startswith("w solve_s: parent 6.5 [")
    assert lines[-2] == "w operations attempted (failed): parent 200 (1)  change 345 (0)"
