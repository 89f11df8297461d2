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
