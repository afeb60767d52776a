import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqcm import geometry
from wqcm.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run_cli
from wqcm.catalog import document
from wqcm.exprdsl import eval_tape, load_structure_def
from wqcm.suites import SamplePlan, sample_points
from test_exprdsl import COORDS, exprs


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


COMMON = ["--points", "6", "--no-timestamp"]


def test_list_command():
    code, out, err = run(["list"])
    assert code == EXIT_OK
    assert "sasakian-r3" in out.splitlines()
    assert err == ""


def test_validate_builtin_ok():
    code, out, _ = run(["validate", "builtin:sasakian-r3", *COMMON])
    assert code == EXIT_OK
    assert "pass" in out


def test_validate_missing_file_is_usage_error():
    code, out, err = run(["validate", "not-a-file.json"])
    assert code == EXIT_USAGE
    assert "no such structure file" in err
    assert out == ""


def test_validate_structure_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(document("sasakian-r3")))
    code, out, _ = run(["validate", str(path), *COMMON])
    assert code == EXIT_OK
    # a cell of any length compiles: g_00 written as a sum of 1,500 terms
    doc = document("sasakian-r3")
    doc["metric"][0][0] = " + ".join(["y1*y1/6000"] * 1500 + ["1/4"])
    path.write_text(json.dumps(doc))
    code, out, _ = run(["validate", str(path), *COMMON])
    assert code == EXIT_OK


def test_eleven_coordinates(tmp_path):
    # flat R^11 with n = 5: Halton sampling needs eleven bases
    dim = 11
    f = [["0"] * dim for _ in range(dim)]
    for i in range(0, dim - 1, 2):
        f[i][i + 1], f[i + 1][i] = "1", "-1"
    doc = {
        "name": "flat-n5", "n": 5, "coords": [f"x{i}" for i in range(dim)], "domain": [[-1, 1]] * dim,
        "metric": [["1" if i == j else "0" for j in range(dim)] for i in range(dim)],
        "f": f, "xi": ["0"] * (dim - 1) + ["1"],
    }
    path = tmp_path / "flat5.json"
    path.write_text(json.dumps(doc))
    for command in (["validate"], ["classify"], ["check", "all"]):
        code, _, err = run([*command, str(path), *COMMON])
        assert code == EXIT_OK, (command, err)


def test_malformed_structure_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, _, err = run(["validate", str(path)])
    assert code == EXIT_USAGE
    assert "missing field" in err
    path.write_bytes(b'{"name": "\xff\xfe"}')  # not UTF-8
    code, _, err = run(["validate", str(path)])
    assert code == EXIT_USAGE
    assert "invalid JSON" in err
    doc = document("sasakian-r3")
    doc["xi"][2] = "(" * 1200 + "2" + ")" * 1200
    path.write_text(json.dumps(doc))
    code, _, err = run(["validate", str(path)])
    assert code == EXIT_USAGE
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "key,value,message",
    [
        # a misspelled Q would otherwise drop the Q-consistency row unnoticed
        ("q", [["1.5", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "unknown field 'q'"),
        ("Xi", ["0", "0", "1"], "unknown field 'Xi'"),
        ("comment", "flat", "unknown field 'comment'"),
        ("name", None, "name must be a string"),
        ("name", 5, "name must be a string"),
        # a coordinate name must lex as one identifier that no function call reads
        *(("coords", [c, "y", "z"], f"coordinate name {c!r} must be an identifier other than sin, cos, exp, sqrt")
          for c in ("a-b", "", "sin")),
    ],
)
def test_structure_file_fails_closed_on_fields(tmp_path, key, value, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**document("flat-const"), key: value}))
    code, out, err = run(["validate", str(path), "--points", "4"])
    assert (code, out, err) == (EXIT_USAGE, "", f"error: cannot load {path}: {message}\n")


def test_usage_errors():
    for argv in (
        [],
        ["frobnicate"],
        ["check", "everything", "builtin:sasakian-r3"],
        ["check", "all", "builtin:nope"],
        ["check", "all", "builtin:scaled?s="],
        ["validate", "builtin:scaled"],  # missing s
        ["fbasis", "builtin:sasakian-r3", "--at", "0,0"],  # wrong arity
        ["fbasis", "builtin:sasakian-r3", "--at", "a,b,c"],
        # builtin parameters fail closed: misspelled, or not taken by the key
        ["classify", "builtin:scaled?N=3,s=2"],
        ["check", "all", "builtin:sasakian-r3?s=5"],
        ["check", "all", "builtin:flat-const?n=3,bogus=1"],
        ["classify", "builtin:scaled?s=2,s=3"],
        # parameters are separated by commas only
        ["validate", "builtin:scaled?n=1&s=2"],
        # n is an int and s a float
        ["validate", "builtin:scaled?n=x,s=2"],
        ["validate", "builtin:scaled?n=1.5,s=2"],
        ["validate", "builtin:scaled?n=1,s=abc"],
        # tolerances must be finite and non-negative
        ["check", "all", "builtin:sasakian-r3", "--tol-deriv", "nan"],
        ["check", "all", "builtin:sasakian-r3", "--tol-curv", "-inf"],
        ["validate", "builtin:sasakian-r3", "--tol-algebraic", "-1e-10"],
        # the sample points are always a Halton sequence
        ["check", "all", "builtin:sasakian-r3", "--strategy", "grid"],
        # there is no cone command: `validate` asserts the axioms that J^2 = -P restates
        ["cone", "builtin:flat-const", "--at", "0,0,0"],
    ):
        code, out, _ = run(argv)
        assert code == EXIT_USAGE, argv
        assert out == "", argv


@pytest.mark.parametrize("query,name,kind,value", [
    ("n=x,s=2", "n", "int", "x"), ("n=1.5,s=2", "n", "int", "1.5"), ("n=1,s=abc", "s", "float", "abc"),
])
def test_a_bad_builtin_parameter_value_names_the_parameter_and_its_type(query, name, kind, value):
    code, out, err = run(["validate", f"builtin:scaled?{query}"])
    message = f"error: builtin:scaled parameter {name} must be of type {kind}, got {value!r}\n"
    assert (code, out, err) == (EXIT_USAGE, "", message)


def test_classify_always_exits_zero():
    for source in ("builtin:sasakian-r3", "builtin:scaled?s=2", "builtin:flat-const"):
        code, out, _ = run(["classify", source, *COMMON, "--format", "json"])
        assert code == EXIT_OK
        json.loads(out)  # stdout is the report, nothing else


def test_check_all_exit_codes():
    for source in ("builtin:sasakian-r3", "builtin:scaled?s=2", "builtin:flat-const"):
        code, out, _ = run(["check", "all", source, *COMMON])
        assert code == EXIT_OK, source


def test_check_json_stdout_is_pure_json():
    code, out, err = run(
        ["check", "identity", "builtin:sasakian-r3", *COMMON, "--format", "json"]
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["suite"] == "identity"
    assert list(doc) == ["suite", "structure", "seed", "tol", "checks"]
    assert err == ""
    # a timestamp, when there is one, comes last
    _, out, _ = run(["check", "identity", "builtin:sasakian-r3", *COMMON[:2], "--format", "json"])
    assert list(json.loads(out)) == ["suite", "structure", "seed", "tol", "checks", "timestamp"]


def test_check_reports_are_deterministic():
    argv = ["check", "all", "builtin:scaled?s=2", "--format", "json", "--no-timestamp"]
    _, a, _ = run(argv)
    _, b, _ = run(argv)
    assert a == b


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["check", "identity", "builtin:sasakian-r3", *COMMON, "--format", "json",
         "--output", str(target)]
    )
    assert code == EXIT_OK
    assert out == ""
    json.loads(target.read_text())


def test_unwritable_output_is_usage_error(tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(["check", "all", "builtin:sasakian-r3", "--points", "1", "--output", str(target)])
    assert code == EXIT_USAGE
    assert f"error: cannot write {target}" in err and out == ""


def test_seed_option_and_default():
    _, out, _ = run(["check", "identity", "builtin:sasakian-r3", *COMMON, "--format", "json"])
    assert json.loads(out)["seed"] == 7
    _, out, _ = run(
        ["check", "identity", "builtin:sasakian-r3", *COMMON, "--format", "json", "--seed", "3"]
    )
    assert json.loads(out)["seed"] == 3


# the complete `fbasis` text, pinned: on sasakian-r7 and scaled n=3 the
# eigenvalues repeat, so the tie-break decides the basis
P7 = "0.2,-0.3,0.1,0.4,0.5,-0.6,0.1"
FBASIS_TEXTS = [
    ("builtin:sasakian-r3", "0.2,-0.3,0.1", [
        "f-basis of sasakian-r3 at (0.2,-0.3,0.1)",
        "  xi = [0.0, 0.0, 2.0]",
        "  lambda_1 = 1.0",
        "  e_1  = [2.0, 0.0, -0.6]",
        "  fe_1 = [0.0, -2.0, 0.0]",
        "  max pairwise g-product = 0.000e+00",
        "  verdict = pass",
    ]),
    ("builtin:sasakian-r7", P7, [
        "f-basis of sasakian-r7 at (0.2,-0.3,0.1,0.4,0.5,-0.6,0.1)",
        "  xi = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]",
        "  lambda_1 = 1.0",
        "  e_1  = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8]",
        "  fe_1 = [0.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.0]",
        "  lambda_2 = 1.0",
        "  e_2  = [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0]",
        "  fe_2 = [0.0, 0.0, 0.0, 0.0, -2.0, 0.0, 0.0]",
        "  lambda_3 = 1.0000000000000002",
        "  e_3  = [0.0, 0.0, 2.0000000000000004, 0.0, 0.0, 0.0, -1.2000000000000002]",
        "  fe_3 = [0.0, 0.0, 0.0, 0.0, 0.0, -2.0000000000000004, 0.0]",
        "  max pairwise g-product = 0.000e+00",
        "  verdict = pass",
    ]),
    ("builtin:scaled?n=3,s=2", P7, [
        "f-basis of scaled-n3-s2.0 at (0.2,-0.3,0.1,0.4,0.5,-0.6,0.1)",
        "  xi = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]",
        "  lambda_1 = 4.0",
        "  e_1  = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8]",
        "  fe_1 = [0.0, 0.0, 0.0, -4.0, 0.0, 0.0, 0.0]",
        "  lambda_2 = 4.0",
        "  e_2  = [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0]",
        "  fe_2 = [0.0, 0.0, 0.0, 0.0, -4.0, 0.0, 0.0]",
        "  lambda_3 = 4.000000000000001",
        "  e_3  = [0.0, 0.0, 2.0000000000000004, 0.0, 0.0, 0.0, -1.2000000000000002]",
        "  fe_3 = [0.0, 0.0, 0.0, 0.0, 0.0, -4.000000000000001, 0.0]",
        "  max pairwise g-product = 0.000e+00",
        "  verdict = pass",
    ]),
]


def test_fbasis_command():
    for source, at, lines in FBASIS_TEXTS:
        code, out, err = run(["fbasis", source, "--at", at])
        assert code == EXIT_OK and err == "", source
        assert out == "\n".join(lines) + "\n", source


def test_fbasis_on_a_dense_chart():
    # the chart of test_classify.test_f_basis_is_orthonormal_on_a_dense_chart
    path = Path(__file__).parent / "data" / "dense-r13-const.json"
    code, out, err = run(["fbasis", str(path), "--at", ",".join(["0.3"] * 13)])
    assert code == EXIT_OK and err == ""
    assert out.endswith("  verdict = pass\n")


@pytest.mark.parametrize("command", ["fbasis"])
def test_point_commands_take_no_report_options(tmp_path, command):
    target = tmp_path / "x"
    code, out, _ = run([command, "builtin:sasakian-r3", "--at", "0,0,0", "--output", str(target)])
    assert code == EXIT_USAGE and out == ""
    assert not target.exists()


def test_builtin_parameters():
    code, out, _ = run(["validate", "builtin:scaled?n=2,s=0.5", *COMMON])
    assert code == EXIT_OK


def test_check_failure_exit_code(tmp_path):
    # a structure violating the axioms: f not skew w.r.t. g
    doc = {
        "name": "broken",
        "n": 1,
        "coords": ["x", "y", "z"],
        "domain": [[-1, 1]] * 3,
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "f": [["0", "1", "0"], ["-0.9", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["validate", str(path), *COMMON])
    assert code == EXIT_FAIL
    code, out, _ = run(["check", "identity", str(path), *COMMON])
    assert code == EXIT_FAIL


# flat-const with one cell edited: f[0][2] = 1 breaks f xi = 0, f[2][0] = 1
# breaks eta o f = 0, and xi[2] = 2 breaks eta(xi) = 1
@pytest.mark.parametrize(
    "field, value, check",
    [
        ("f", [["0", "1", "1"], ["-1", "0", "0"], ["0", "0", "0"]], "f-xi"),
        ("f", [["0", "1", "0"], ["-1", "0", "0"], ["1", "0", "0"]], "eta-f"),
        ("xi", ["0", "0", "2"], "eta-normalization"),
    ],
    ids=["f-xi", "eta-f", "eta-normalization"],
)
def test_validate_fails_each_reeb_axiom(tmp_path, field, value, check):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**document("flat-const"), field: value}))
    code, out, _ = run(["validate", str(path), "--format", "json", "--no-timestamp"])
    assert code == EXIT_FAIL
    assert {c["id"]: c["verdict"] for c in json.loads(out)["checks"]}[check] == "fail"


@pytest.mark.parametrize(
    "flags",
    [["--points", "0"], ["--points", "-3"], ["--seed", "-1"]],
    ids=["points-zero", "points-negative", "seed-negative"],
)
def test_bad_count_or_seed_is_usage_error(flags):
    code, out, err = run(["check", "identity", "builtin:sasakian-r3", *flags])
    assert code == EXIT_USAGE
    assert "must be at least" in err
    assert out == ""


def test_non_finite_residuals_fail(recwarn):
    # f[2][2] = inf * 0 = NaN: every check must fail, none pass or skip
    path = Path(__file__).parent / "data" / "sasakian-r3-nan.json"
    code, out, _ = run(["check", "identity", str(path), *COMMON, "--format", "json"])
    assert code == EXIT_FAIL
    # strict JSON: a non-finite residual is the string "nan" or "inf"
    doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"not strict JSON: {c}"))
    by_id = {c["id"]: c for c in doc["checks"]}
    assert by_id["lemma21-5"]["verdict"] == "fail"  # gated on a NaN quasi residual
    assert any(c["max_residual"] in ("nan", "inf") for c in by_id.values())
    for c in by_id.values():
        assert c["verdict"] != "skipped", c["id"]
        if c["max_residual"] in ("nan", "inf"):
            assert c["verdict"] == "fail", c["id"]


def test_python_m_wqcm():
    src = Path(__file__).parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "wqcm", "list"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "sasakian-r3" in proc.stdout.splitlines()


def _nan_doc():
    return json.loads((Path(__file__).parent / "data" / "sasakian-r3-nan.json").read_text())


def _singular_metric(doc):
    doc["f"][2][2] = "0"
    doc["metric"][0][0] = "y1"  # not positive definite where y1 <= 0


def _sqrt_of_negative(doc):
    doc["f"][2][2] = "0"
    doc["xi"][0] = "sqrt(y1)"


def _metric_cell(text):
    def edit(doc):
        doc["f"][2][2] = "0"
        doc["metric"][1][1] = text

    return edit


# (edit, what the error must say after the point when the edit makes the
# structure unevaluable everywhere, or None when some exit 1 or 2 is enough)
EDITS = [
    pytest.param(lambda doc: None, "Q is not finite", id="nan"),
    pytest.param(_singular_metric, None, id="singular-metric"),
    pytest.param(_sqrt_of_negative, None, id="sqrt-negative"),
    pytest.param(_metric_cell("1e200*1e200"), "metric is not finite", id="inf-metric"),
    pytest.param(_metric_cell("1e200*1e200*0"), "metric is not finite", id="nan-metric"),
]


@pytest.mark.parametrize(
    "command", [["check", "all"], ["validate"], ["classify"]], ids=["check-all", "validate", "classify"]
)
@pytest.mark.parametrize("edit, message", EDITS)
def test_evaluation_errors_exit_without_traceback(tmp_path, recwarn, command, edit, message):
    doc = _nan_doc()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run([*command, str(path), "--points", "2", "--no-timestamp"])
    assert code in (EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:
        # the point is named once, by the evaluator
        assert err.startswith("error: at sample point [") and err.count("[") == 1 and out == ""
    if message:
        assert code == EXIT_USAGE and f"]: {message}" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["fbasis"])
@pytest.mark.parametrize("edit, message", EDITS)
def test_point_evaluation_errors_exit_without_traceback(tmp_path, recwarn, command, edit, message):
    doc = _nan_doc()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run([command, str(path), "--at", "0.1,-0.2,0.3"])
    assert code in (EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert err.startswith("error: at point [0.1, -0.2, 0.3]: ") and err.count("[") == 1 and out == ""
    if message:
        assert code == EXIT_USAGE and err == f"error: at point [0.1, -0.2, 0.3]: {message}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _nan_xi(doc):
    doc["f"][2][2] = "0"
    doc["xi"][2] = "1e200*1e200*0"


@pytest.mark.parametrize("edit, message", [(lambda doc: None, "Q is not finite"), (_nan_xi, "xi is not finite")])
def test_fbasis_names_a_non_finite_field_before_any_eigensolve(tmp_path, monkeypatch, edit, message):
    def eigh(*args):
        raise AssertionError("a non-finite field reached eigh")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    doc = _nan_doc()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["fbasis", str(path), "--at", "0.1,-0.2,0.3"])
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: at point [0.1, -0.2, 0.3]: {message}\n"


def test_error_names_the_first_failing_sample_point(tmp_path):
    # the metric is singular at the first sample point; the tape fails (sqrt of
    # a negative) only at the second, which the same block evaluates first
    doc = document("flat-const")
    doc["metric"][0][0] = "x + 0.5"
    doc["xi"][0] = "sqrt(y)"
    first, second = sample_points(SamplePlan(count=2, seed=7), doc["domain"])
    assert first[0] + 0.5 < 0.0 < first[1] and second[0] + 0.5 > 0.0 > second[1]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(path), "--points", "4", "--seed", "7"])
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: at sample point {first.tolist()}: metric is not positive definite\n"


@pytest.mark.parametrize("command", [["check", "all"], ["classify"], ["validate"]], ids=" ".join)
def test_error_in_a_block_names_its_first_failing_point(tmp_path, monkeypatch, recwarn, command):
    # g_11 = x - x_k is positive at the lanes before k and 0 at lane k, so
    # the Cholesky of the whole block fails; its chunk is then searched by
    # halves, and the error is that of lane k alone
    points = sample_points(SamplePlan(count=32, seed=7), document("flat-const")["domain"])
    x = [p[0] for p in points]
    k = next(k for k in range(1, 32) if x[k] < min(x[:k]))
    assert k == 8
    doc = document("flat-const")
    doc["metric"][0][0] = f"x - ({float(x[k])!r})"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    sizes = []
    frame = geometry.orthonormal_frame

    def recorded_frame(g):
        sizes.append(len(g))
        return frame(g)

    monkeypatch.setattr(geometry, "orthonormal_frame", recorded_frame)
    code, out, err = run([*command, str(path), "--points", "32", "--seed", "7", "--no-timestamp"])
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: at sample point {points[k].tolist()}: metric is not positive definite\n"
    # lanes 0-31 fail, 0-15 fail, 0-7 pass, 8-15, 8-11, 8-9 and 8 fail
    assert sizes == [32, 16, 8, 8, 4, 2, 1]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", [["check", "all"], ["classify"], ["validate"]], ids=" ".join)
def test_tape_error_at_lane_40_names_its_point(tmp_path, monkeypatch, command):
    # g_11 = (x - x_40)^-2 fails in the tape at lane 40 alone.  For `check
    # all` (jets of order 2, 32-point chunks) the first chunk passes whole,
    # and the second is searched by halves.  For `classify` and `validate`
    # (order 1) the tape fails over the one 64-point chunk before any state
    # is built, and its first half passes whole.  Either way lanes 32-39
    # pass, and 40-47, 40-43, 40-41 and 40 fail in the tape
    points = sample_points(SamplePlan(count=64, seed=7), document("flat-const")["domain"])
    doc = document("flat-const")
    doc["metric"][0][0] = f"(x - ({float(points[40][0])!r}))^-2"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    sizes = []
    frame = geometry.orthonormal_frame

    def recorded_frame(g):
        sizes.append(len(g))
        return frame(g)

    monkeypatch.setattr(geometry, "orthonormal_frame", recorded_frame)
    code, out, err = run([*command, str(path), "--points", "64", "--seed", "7", "--no-timestamp"])
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: at sample point {points[40].tolist()}: negative power of zero jet value\n"
    assert sizes == [32, 8]


@pytest.mark.parametrize("command", [["check", "all"], ["validate"]], ids=" ".join)
def test_the_first_failing_point_in_sample_order_wins_over_tape_order(tmp_path, command):
    # In one chunk of either jet order, lane 20 fails at the metric, which
    # the tape evaluates before xi, and lane 10 fails only at xi; the error
    # is that of lane 10, with its own message
    points = sample_points(SamplePlan(count=32, seed=7), document("flat-const")["domain"])
    doc = document("flat-const")
    doc["metric"][0][0] = f"1 + 0 * (x - ({float(points[20][0])!r}))^-2"
    doc["xi"][2] = f"1 + 0 * sqrt((x - ({float(points[10][0])!r}))^2 + (y - ({float(points[10][1])!r}))^2 - 1e-12)"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    for order in (1, 2):
        with pytest.raises(ZeroDivisionError, match="negative power of zero jet value"):
            eval_tape(load_structure_def(doc).tape, points, order)
    code, out, err = run([*command, str(path), "--points", "32", "--seed", "7", "--no-timestamp"])
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: at sample point {points[10].tolist()}: sqrt of non-positive jet value -1e-12\n"


@pytest.mark.parametrize("command", ["fbasis"])
def test_point_outside_domain_is_usage_error(command):
    code, out, err = run([command, "builtin:sasakian-r3", "--at", "5,0,0"])
    assert code == EXIT_USAGE
    assert "outside the chart domain" in err and out == ""


def test_non_string_cell_is_usage_error(tmp_path):
    doc = document("sasakian-r3")
    doc["metric"][1][1] = 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(path)])
    assert code == EXIT_USAGE
    assert "metric entry [1][1]" in err and out == ""


CELLS = [("metric", i, j) for i in range(3) for j in range(i, 3)]
CELLS += [("f", i, j) for i in range(3) for j in range(3)] + [("xi", i, None) for i in range(3)]


@st.composite
def structure_docs(draw):
    """The flat-const structure with some cells replaced by random expressions."""
    doc = {
        "name": "random",
        "n": 1,
        "coords": COORDS,
        "domain": [[-1, 1]] * 3,
        "metric": [["1", "0", "0"], ["", "1", "0"], ["", "", "1"]],
        "f": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]],
        "xi": ["0", "0", "1"],
    }
    for field, i, j in draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=3, unique=True)):
        row = doc[field] if j is None else doc[field][i]
        row[i if j is None else j] = draw(exprs(depth=2))
    return doc


@settings(max_examples=30, deadline=None)
@given(structure_docs())
def test_any_structure_exits_0_1_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("random") / "s.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for command in (["validate"], ["classify"], ["check", "all"]):
            code, _, _ = run([*command, str(path), "--points", "2", "--no-timestamp"])
            assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
