"""The comparison step of `scripts/same_outputs.py`, on hand-made output
directories (the harness itself runs every experiment twice and is not run here)."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"


def _load():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_each_kind_of_difference(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    report = {"flags": {"ok": True}, "results": {"x": 1.0, "label": "a"}}
    for side in (parent, change):
        (side / "same.json").write_text(json.dumps(report))
        (side / "same.csv").write_text("key,value\nx,1\n")
    (parent / "moved.json").write_text(json.dumps(report))
    (change / "moved.json").write_text(json.dumps({**report, "results": {"x": 1.5, "label": "a"}}))
    (parent / "demo-01.txt").write_text("one\ntwo\n")
    (change / "demo-01.txt").write_text("one\nthree\n")
    (parent / "gone.csv").write_text("key,value\n")

    rows = {name: (same, detail) for name, same, detail in _load().compare(
        parent, change, ["same.json", "same.csv", "moved.json", "demo-01.txt", "gone.csv", "crashed.json"])}

    assert rows["same.json"] == (True, "") and rows["same.csv"] == (True, "")
    assert rows["moved.json"][0] is False
    assert "results.x: abs 5.00e-01" in rows["moved.json"][1] and "flags same" in rows["moved.json"][1]
    assert rows["demo-01.txt"] == (False, "first difference at line 2")
    assert rows["gone.csv"] == (False, "missing in change")
    assert rows["crashed.json"] == (False, "missing in parent and change")


def test_json_detail_counts_every_moved_number(tmp_path):
    # the largest deviation alone does not say how many numbers moved
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    report = {"flags": {"ok": True}, "results": {"x": 1.0, "y": [2.0, 3.0], "label": "a"}}
    (parent / "moved.json").write_text(json.dumps(report))
    (change / "moved.json").write_text(json.dumps({**report, "results": {"x": 1.5, "y": [2.0, 3.0 + 1e-9],
                                                                         "label": "a"}}))

    [(name, same, detail)] = _load().compare(parent, change, ["moved.json"])

    assert (name, same) == ("moved.json", False)
    assert detail == ("largest numeric deviation at results.x: abs 5.00e-01, rel 5.00e-01; "
                      "2 numeric leaves differ; 0 other leaves differ; flags same")


def test_produce_records_every_exit_code(tmp_path, monkeypatch):
    # a change to the CLI's exit path must show even when the report bytes match
    module = _load()
    tree = tmp_path / "tree"
    (tree / "demos").mkdir(parents=True)
    (tree / "demos" / "01_demo.py").write_text("print('demo')\n")

    def fake_run(cmd, **kwargs):
        code = 1 if "validate-effective" in cmd else 0
        return module.subprocess.CompletedProcess(cmd, code, stdout="demo\n", stderr="")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    names = module.produce(tree, tmp_path / "out")
    assert names[-1] == "exit-codes.txt"
    lines = (tmp_path / "out" / "exit-codes.txt").read_text().splitlines()
    assert len(lines) == len(names) - 1 == 64 + 12 + 11 + 1
    assert "config-error-cnot-time-overflow.txt 0" in lines
    assert lines[0] == "entangle-seed0.json 0"
    assert "validate-effective-seed0.json 1" in lines
    assert lines[-1] == "demo-01_demo.txt 0"
