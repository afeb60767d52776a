"""The command matrix of `tests/report_matrix.py`: a source's commands do not
depend on which other sources there are, so a matrix run before a source was
added can still be diffed against one run after.  The script is loaded
read-only: no bytecode is written next to it."""

import json
from pathlib import Path

import pytest

from conftest import load_script

MATRIX = load_script(Path(__file__).resolve().parent / "report_matrix.py")


@pytest.mark.parametrize("name", MATRIX.FILES)
def test_dropping_a_source_drops_only_its_commands(name):
    docs = MATRIX.sources()
    full = MATRIX.commands(docs)
    without = MATRIX.commands({source: doc for source, doc in docs.items() if source != name})
    assert [c for c in full if name not in c] == [c for c in without if name not in c]
    assert all(c in full for c in without)
    assert any(c[:2] == ["fbasis", name] for c in full if c not in without)


ROW = "{:<29}{:<16}{:>12}{:>11}{:>9}"
TEXT = "suite: all   structure: s   seed: 7\n" + ROW.format("n3-xi", "(2)/(3)", "{}", "1.0e-10", "{}") + "\n"
REPORT = {"suite": "all", "checks": [{"id": "n3-xi", "max_residual": 0.0, "tol": 1e-10, "verdict": "pass"},
                                     {"id": "h-xi", "max_residual": "inf", "tol": 1e-10, "verdict": "fail"}]}


def _json_with(residual):
    report = json.loads(json.dumps(REPORT))
    report["checks"][0]["max_residual"] = residual
    return json.dumps(report)


@pytest.mark.parametrize("before, after, how, summary", [
    (_json_with(0.0), _json_with(2.5e-15), "residuals only, max |Δ| = 2.5e-15",
     "1 in residuals only, max |Δ| = 2.5e-15"),
    (TEXT.format("0.000e+00", "pass"), TEXT.format("3.500e-15", "pass"), "residuals only, max |Δ| = 3.5e-15",
     "1 in residuals only, max |Δ| = 3.5e-15"),
    (TEXT.format("0.000e+00", "pass"), TEXT.format("3.500e-15", "fail"), "differs", "0 in residuals only"),
], ids=["json-residuals", "text-residuals", "text-verdict"])
def test_diff_reads_residuals_of_json_and_text_reports(tmp_path, capsys, before, after, how, summary):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"same": [0, "x", ""], "cmd": [0, before, ""]}))
    b.write_text(json.dumps({"same": [0, "x", ""], "cmd": [0, after, ""]}))
    assert MATRIX.main(["--diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"cmd: {how}", f"1 of 2 commands differ, {summary}"]
