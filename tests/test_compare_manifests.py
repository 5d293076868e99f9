"""scripts/compare_manifests.py on small hand-made output trees."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_manifests.py"

MANIFEST = {"results": {"fit": {"slope": 3.08}}, "config": {"probe": {"kind": "wf"}},
            "criteria": [{"name": "fitted slope >= 3.0", "passed": True,
                          "detail": "slope = 3.082"}]}
CSV = "h,epsilon_used,norm,iterations,seconds\n0.125,0.01,0.25,6,0.0131\n"


def _tree(root: Path, manifest=MANIFEST, csv_text=CSV, names=("free-wf-offset", "one-sided")):
    for name in names:
        (root / name).mkdir(parents=True)
        (root / name / "manifest.json").write_text(json.dumps(manifest))
        (root / name / "results.csv").write_text(csv_text)
    return root


def _compare(a: Path, b: Path):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_identical_trees_and_seconds_only_are_same(tmp_path):
    a = _tree(tmp_path / "a")
    assert _compare(a, _tree(tmp_path / "b")) == (
        0, "free-wf-offset           same\none-sided                same\n")
    slower = _tree(tmp_path / "c", csv_text=CSV.replace("0.0131", "9.5"))
    assert _compare(a, slower)[0] == 0


@pytest.mark.parametrize("changed", [
    dict(manifest={**MANIFEST, "results": {"fit": {"slope": 3.0800001}}}),
    dict(manifest={**MANIFEST, "criteria": [{**MANIFEST["criteria"][0], "passed": False}]}),
    dict(csv_text=CSV.replace("0.25,", "0.2500001,")),
    dict(csv_text=CSV + "0.0625,0.01,0.01,6,0.02\n"),
    dict(names=("free-wf-offset",)),
    dict(manifest={**MANIFEST, "config": {"probe": {"kind": "wf", "delta1": 0.6}}}),
], ids=["manifest-value", "criterion", "csv-cell", "csv-row", "missing-recipe", "config"])
def test_any_difference_exits_1(tmp_path, changed):
    code, out = _compare(_tree(tmp_path / "a"), _tree(tmp_path / "b", **changed))
    assert code == 1
    assert "difference" in out or "only in" in out


def test_numeric_differences_show_relative_size(tmp_path):
    changed = {**MANIFEST, "results": {"fit": {"slope": 3.0800001}},
               "criteria": [{**MANIFEST["criteria"][0], "passed": False}]}
    code, out = _compare(_tree(tmp_path / "a", names=("one-sided",)),
                         _tree(tmp_path / "b", manifest=changed, names=("one-sided",),
                               csv_text=CSV.replace("0.25,", "0.2500001,")))
    assert code == 1
    assert out.splitlines() == [
        "one-sided                3 difference(s), max rel 4.0e-07",
        "    results.fit.slope: 3.08 != 3.0800001 (rel 3.2e-08)",
        "    criteria[0].passed: True != False",
        "    results.csv[1][2]: '0.25' != '0.2500001' (rel 4.0e-07)",
    ]


def test_reader_closing_early_exits_quietly(tmp_path):
    # far more than a pipe buffer of difference lines, so the script is still
    # writing when its reader goes away after the first line
    rows = "".join(f"{k},0.01,{k},6,0.01\n" for k in range(8000))
    a = _tree(tmp_path / "a", csv_text=CSV + rows, names=("one-sided",))
    b = _tree(tmp_path / "b", csv_text=CSV + rows.replace(",6,", ",7,"), names=("one-sided",))
    proc = subprocess.Popen([sys.executable, str(SCRIPT), str(a), str(b)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("one-sided")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == ""
    proc.stderr.close()
