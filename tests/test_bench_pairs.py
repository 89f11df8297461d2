"""The change side of `scripts/bench_pairs.py` runs from a snapshot of the
working tree taken at start."""

import importlib.util
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
