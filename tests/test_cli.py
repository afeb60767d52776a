import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqcm import catalog, geometry
from wqcm.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run_cli
from wqcm.catalog import document
from wqcm.exprdsl import eval_tape, load_structure_def
from wqcm.structure import PointState
from wqcm.suites import Tolerances, sample_points
from test_exprdsl import COORDS, exprs
from test_perfbench_oracle import WORKLOADS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


COMMON = ["--points", "6", "--no-timestamp"]
DATA = Path(__file__).parent / "data"
PADDED = str(DATA / "sasakian-r3-padded.json")
NAN = str(DATA / "sasakian-r3-nan.json")
# sasakian-r3 with f_01 and f_10 perturbed by +-1e-10 sin(1e170 z): h_01 = -h_10
# is about 6.2e159, so tr h^2 overflows to -inf at every point
OVERFLOW = str(DATA / "sasakian-r3-trh2-overflow.json")
# sasakian-r3 with metric cell [2][2] = 1e300: the f-basis's frame products overflow
HUGE_METRIC = str(DATA / "sasakian-r3-huge-metric.json")


def test_list_command():
    code, out, err = run(["list"])
    assert code == EXIT_OK
    assert "sasakian-r3" in out.splitlines()
    assert err == ""


@pytest.mark.parametrize("source, points", [
    ("builtin:sasakian-r3", "6"),
    # first-order chunks of 256 points, eight states each: 100 points are one
    # partial chunk, its last state partial; 300 are two, the second partial
    ("builtin:sasakian-r7", "100"),
    ("builtin:sasakian-r7", "300"),
    # sin and cos cells over two first-order chunks
    pytest.param(PADDED, "300", id="padded-300"),
    # the axiom rows are relative to the size of f and Q
    ("builtin:scaled?n=3,s=100", "4"),
])
def test_validate_builtin_ok(source, points):
    code, out, err = run(["validate", source, "--points", points, "--no-timestamp"])
    assert (code, err) == (EXIT_OK, "")
    assert "pass" in out


def test_validate_missing_file_is_usage_error():
    code, out, err = run(["validate", "not-a-file.json"])
    assert code == EXIT_USAGE
    assert "no such structure file" in err
    assert out == ""


def test_a_name_too_long_is_usage_error():
    name = "a" * 5000
    err = f"error: cannot read {name}: File name too long\n"
    assert run(["validate", name]) == (EXIT_USAGE, "", err)
    proc = python(["-m", "wqcm", "validate", name])
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_USAGE, "", err)


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_what_is_not_a_file_is_not_opened(tmp_path, monkeypatch, kind):
    path = tmp_path / "s.json"
    if kind == "directory":
        path.mkdir()
    else:
        os.mkfifo(path)  # opening it would block
    monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(f"{self} was opened"))
    assert run(["validate", str(path)]) == (EXIT_USAGE, "", f"error: no such structure file: {path}\n")


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


def test_unreadable_structure_file_is_usage_error(tmp_path, monkeypatch):
    path = tmp_path / "locked.json"
    path.write_text(json.dumps(document("flat-const")))

    def read_bytes(self):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    code, out, err = run(["validate", str(path), "--points", "2"])
    assert (code, out, err) == (EXIT_USAGE, "", f"error: cannot read {path}: Permission denied\n")


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


@pytest.mark.parametrize("source, points", [
    ("builtin:sasakian-r3", "6"), ("builtin:scaled?s=2", "6"), ("builtin:flat-const", "6"),
    # one partial first-order chunk of five states, the last one partial
    ("builtin:sasakian-r7", "130"),
    # the class rows are relative residuals, also at large s
    ("builtin:scaled?n=1,s=100", "8"),
])
def test_classify_always_exits_zero(source, points):
    code, out, err = run(["classify", source, "--points", points, "--no-timestamp", "--format", "json"])
    assert (code, err) == (EXIT_OK, "")
    json.loads(out)  # stdout is the report, nothing else


@pytest.mark.parametrize("source, points", [
    ("builtin:sasakian-r3", "6"), ("builtin:scaled?s=2", "6"), ("builtin:flat-const", "6"),
    # the 6x6 determinant of the contact volume, and checks gated out everywhere
    ("builtin:scaled?n=3,s=2", "4"),
    # a full block and then a partial block of 8 through the batched checks
    ("builtin:sasakian-r7", "40"),
    ("builtin:scaled?n=3,s=2", "40"),
    # sin and cos cells over two second-order blocks
    pytest.param(PADDED, "40", id="padded-40"),
])
def test_check_all_exit_codes(source, points):
    code, _, err = run(["check", "all", source, "--points", points, "--no-timestamp"])
    assert (code, err) == (EXIT_OK, "")


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


@pytest.mark.parametrize("at", ["-0.2,0.1,0.3", "-.2,-0.1,0.3", "-1e-1,0.1,0.3"])
def test_fbasis_takes_a_negative_first_coordinate(at):
    """argparse reads a value that starts with a minus sign as an option
    unless it is one negative number, so `run_cli` writes `--at X` as
    `--at=X` first."""
    spaced = run(["fbasis", "builtin:sasakian-r3", "--at", at])
    assert spaced == run(["fbasis", "builtin:sasakian-r3", f"--at={at}"])
    assert spaced[0] == EXIT_OK and spaced[1].startswith(f"f-basis of sasakian-r3 at ({at})\n")


@pytest.mark.parametrize("at, message", [
    ("-0.2,0.1", "point '-0.2,0.1' has 2 coordinates, chart needs 3"),
    ("-5,0,0", "point '-5,0,0' is outside the chart domain [(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)]"),
    ("-0.2,x,0.3", "bad point '-0.2,x,0.3'"),
    # not a number after the minus sign: argparse still reads an option
    ("-x,0,0", "argument --at: expected one argument"),
])
def test_a_bad_point_with_a_negative_first_coordinate_is_a_usage_error(at, message):
    """The same first line of stderr as the `--at=` form, and no output."""
    code, out, err = run(["fbasis", "builtin:sasakian-r3", "--at", at])
    assert (code, out, err.splitlines()[0]) == (EXIT_USAGE, "", f"error: {message}")
    if at != "-x,0,0":  # the one value that is not written `--at=X`
        assert (code, out, err) == run(["fbasis", "builtin:sasakian-r3", f"--at={at}"])


def test_fbasis_on_a_dense_chart():
    # the chart of test_classify.test_f_basis_is_orthonormal_on_a_dense_chart
    path = DATA / "dense-r13-const.json"
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


# flat-const with one field edited: f[0][2] = 1 breaks f xi = 0 (|f xi| = 1),
# f[2][0] = 1 breaks eta o f = 0 (|eta f| = 1), xi[2] = 2 breaks eta(xi) = 1
# (eta(xi) = 4), and f = diag(1, 1, 0) makes Q = diag(-1, -1, 1), whose
# smallest eigenvalue q = -1 gives 1 - q = 2
@pytest.mark.parametrize(
    "field, value, check, residual",
    [
        ("f", [["0", "1", "1"], ["-1", "0", "0"], ["0", "0", "0"]], "f-xi", 1.0),
        ("f", [["0", "1", "0"], ["-1", "0", "0"], ["1", "0", "0"]], "eta-f", 1.0),
        ("xi", ["0", "0", "2"], "eta-normalization", 3.0),
        ("f", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]], "Q-positive-definite", 2.0),
    ],
    ids=["f-xi", "eta-f", "eta-normalization", "Q-positive-definite"],
)
def test_validate_fails_each_reeb_axiom(tmp_path, field, value, check, residual):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**document("flat-const"), field: value}))
    code, out, _ = run(["validate", str(path), "--format", "json", "--no-timestamp"])
    assert code == EXIT_FAIL
    row = {c["id"]: c for c in json.loads(out)["checks"]}[check]
    assert (row["max_residual"], row["verdict"]) == (residual, "fail")


# Heisenberg at a = 1/4 with Q = lambda on ker eta: contact metric, with h != 0
# where lambda varies, and xi(div xi) = -4 at lambda = exp(x^2) alone
HEISENBERG = DATA / "heisenberg-exp-x2.json"


@pytest.mark.parametrize("lam", ["2", "exp(x)", "exp(x^2)"])
def test_ric_xi_xi_holds_on_weak_contact_metric_heisenberg(tmp_path, lam):
    """Ric(xi, xi) + tr((nabla xi)^2) + xi(div xi) = 0 wherever d eta = Phi,
    for any Q.  Ric(xi, xi) = 2n - tr h^2, which needs Q = id, read 0.400,
    1.97 and 0.571 on these charts."""
    doc = json.loads(HEISENBERG.read_text())
    doc["metric"][2][2], doc["f"][2][1] = f"1/(4*{lam})", f"-{lam}"
    assert_check_all_passes_ric_xi_xi(tmp_path, doc)


def assert_check_all_passes_ric_xi_xi(tmp_path, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["check", "all", str(path), "--points", "32", "--seed", "7", "--format", "json",
                          "--no-timestamp"])
    row = next(c for c in json.loads(out)["checks"] if c["id"] == "ric-xi-xi")
    assert (code, err, row["verdict"], row["points"]) == (EXIT_OK, "", "pass", 32)


def weak_heisenberg_doc(lams) -> dict:
    """Heisenberg H^{2n+1} in `_sasakian_doc`'s frame with G[y_i][y_i] = 1/(4 lambda_i)
    and F^{y_i}_{x_i} = -lambda_i (F^{x_i}_{y_i} = 1 stays): contact metric, xi
    Killing, and Q = lambda_i on the i-th pair (n = len(lams))."""
    n = len(lams)
    dim = 2 * n + 1
    xs, ys = [f"x{i + 1}" for i in range(n)], [f"y{i + 1}" for i in range(n)]
    coframe, frame = catalog._identity(dim), catalog._identity(dim)
    coframe[-1][:n] = [f"-{y}" for y in ys]
    frame[-1][:n] = ys
    G, F = catalog._identity(dim, "1/4"), [["0"] * dim for _ in range(dim)]
    for i, lam in enumerate(lams):
        G[n + i][n + i] = f"1/(4*({lam}))"
        F[i][n + i], F[n + i][i] = "1", f"-({lam})"
    return catalog._frame_doc(f"weak-heisenberg-{n}", xs + ys + ["z"], coframe, frame, G, F, ["0"] * (dim - 1) + ["2"])


# (lambda_i as cell text, their values at a point)
WEAK_HEISENBERG = {
    "1,2": (("1", "2"), lambda x: [1.0, 2.0]),
    "2,2": (("2", "2"), lambda x: [2.0, 2.0]),
    "1,exp(x1)": (("1", "exp(x1)"), lambda x: [1.0, math.exp(x[0])]),
    "0.5,2,3": (("0.5", "2", "3"), lambda x: [0.5, 2.0, 3.0]),
    "2,4,8": (("2", "4", "8"), lambda x: [2.0, 4.0, 8.0]),
}


@pytest.mark.parametrize("key", WEAK_HEISENBERG)
def test_ric_xi_xi_holds_on_weak_k_contact_heisenberg(tmp_path, key):
    """Yano's identity at n = 2 and 3, where the row of Blair's identity
    Ric(xi, xi) = 2n - tr h^2 (Q = id) read 0.29 to 0.76; here
    Ric(xi, xi) = tr Q - 1 = 2 sum lambda_i, h = 0, and the f-basis
    eigenvalues are the lambda_i, ascending."""
    lams, values = WEAK_HEISENBERG[key]
    doc = weak_heisenberg_doc(lams)
    assert_check_all_passes_ric_xi_xi(tmp_path, doc)
    sdef = load_structure_def(doc)
    points = sample_points(8, 7, sdef.domain)
    st = PointState(points, eval_tape(sdef.tape, points, 2))
    want = np.array([values(x) for x in points])
    tol = Tolerances().curv
    assert np.max(np.abs(st.ric_xi_xi - 2.0 * want.sum(axis=1))) <= tol
    assert np.max(np.abs(st.h)) <= tol
    assert np.max(np.abs(st.fbasis[1] - np.sort(want, axis=1))) <= tol


@pytest.mark.parametrize("flags, message", [
    (["--points", "0"], "argument --points: must be at least 1, got 0"),
    (["--points", "-3"], "argument --points: must be at least 1, got -3"),
    (["--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    # every sample point is held before the first check runs
    (["--points", "1000001"], "argument --points: must be at most 1000000, got 1000001"),
], ids=["points-zero", "points-negative", "seed-negative", "points-too-many"])
def test_bad_count_or_seed_is_usage_error(flags, message):
    code, out, err = run(["check", "identity", "builtin:sasakian-r3", *flags])
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {message}\n")
    assert out == ""


@pytest.mark.parametrize("points", ["2", "6"])
def test_non_finite_residuals_fail(points):
    # f[2][2] = inf * 0 = NaN: every check must fail, none pass or skip
    code, out, _ = run(["check", "identity", NAN, "--points", points, "--no-timestamp", "--format", "json"])
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


def assert_sizes(report: dict) -> None:
    """Every max_residual of a JSON report is a size, a float >= +0.0 or the
    string "nan" or "inf", and no row with a non-finite one passes."""
    for c in report["checks"]:
        r = c["max_residual"]
        if isinstance(r, str):
            assert r in ("nan", "inf") and c["verdict"] != "pass", c
        else:
            assert isinstance(r, float) and math.copysign(1.0, r) == 1.0, c


def test_an_overflowing_hypothesis_fails_closed():
    """tr h^2 = -inf is no evidence that tr h^2 <= 0: the row reads "inf" and fails."""
    code, out, err = run(["check", "theorems", OVERFLOW, "--points", "8", "--format", "json", "--no-timestamp"])
    assert (code, err) == (EXIT_FAIL, "")
    report = json.loads(out)
    assert_sizes(report)
    row = next(c for c in report["checks"] if c["id"] == "t35-hyp-trh2-nonpositive")
    assert (row["max_residual"], row["verdict"], row["points"]) == ("inf", "fail", 8)


# a conclusion is held to 10x its tier: the largest tolerance is the largest
# float whose tenfold is finite
TOL_MAX = sys.float_info.max / 10


def test_a_tolerance_whose_tenfold_overflows_is_a_usage_error():
    code, out, err = run(["check", "theorems", OVERFLOW, "--points", "8", "--no-timestamp", "--tol-curv", "1e308"])
    usage = "usage: wqcm [-h] {validate,classify,check,fbasis,list} ...\n"
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: argument --tol-curv: must be at most 1.7976931348623158e+307, got 1e+308\n" + usage
    assert repr(TOL_MAX) == "1.7976931348623158e+307" and math.isfinite(10.0 * TOL_MAX)
    assert not math.isfinite(10.0 * math.nextafter(TOL_MAX, math.inf))


@pytest.mark.parametrize("source, points", [(OVERFLOW, "8"), ("builtin:sasakian-r3", "2")],
                         ids=["overflow", "sasakian-r3"])
def test_the_largest_tolerance_keeps_every_row_finite(source, points):
    """At the bound every row's tolerance is finite: an infinite conclusion
    still fails, and the JSON report stays strict."""
    argv = ["check", "theorems", source, "--points", points, "--format", "json", "--no-timestamp"]
    code, out, err = run([*argv, "--tol-curv", repr(TOL_MAX)])
    report = json.loads(out, parse_constant=lambda c: pytest.fail(f"not strict JSON: {c}"))
    assert err == "" and all(math.isfinite(c["tol"]) for c in report["checks"])
    assert_sizes(report)
    if source == OVERFLOW:
        row = next(c for c in report["checks"] if c["id"] == "t35-2h2-eq-Qt2")
        assert (code, row["max_residual"], row["verdict"], row["tol"]) == (EXIT_FAIL, "inf", "fail", 10.0 * TOL_MAX)


HUGE_POINT = "[-0.8312499999999999, 0.7388888888888887, 0.26600000000000024]"
HUGE_Q = "Q in the g-orthonormal frame is not finite"
HUGE_P = "the projector onto ker eta in the g-orthonormal frame is not finite"


@pytest.mark.parametrize("argv, message", [
    (["validate", HUGE_METRIC, "--points", "4"], f"at sample point {HUGE_POINT}: {HUGE_Q}"),
    (["classify", HUGE_METRIC, "--points", "4"], f"at sample point {HUGE_POINT}: {HUGE_Q}"),
    (["check", "theorems", HUGE_METRIC, "--points", "4"], f"at sample point {HUGE_POINT}: {HUGE_P}"),
    (["check", "all", HUGE_METRIC, "--points", "4"], f"at sample point {HUGE_POINT}: {HUGE_P}"),
    (["fbasis", HUGE_METRIC, "--at", "0.1,0.2,0.3"], f"at point [0.1, 0.2, 0.3]: {HUGE_P}"),
], ids=["validate", "classify", "check-theorems", "check-all", "fbasis"])
def test_a_huge_metric_names_the_tensor_not_lapack(argv, message):
    """g_22 = 1e300 overflows the frame products of Q and of the projector
    onto ker eta, though both tensors are finite; the products are checked
    before LAPACK sees them, and the message names the product."""
    assert run(argv) == (EXIT_USAGE, "", f"error: {message}\n")


REPORT_SOURCES = [
    "builtin:sasakian-r3", "builtin:sasakian-r5", "builtin:sasakian-r7", "builtin:scaled?n=1,s=2",
    "builtin:scaled?n=3,s=2", "builtin:scaled?n=2,s=0.5", "builtin:flat-const",
    PADDED, str(DATA / "dense-r13-const.json"), NAN, OVERFLOW,
]


@pytest.mark.parametrize("source", REPORT_SOURCES, ids=lambda s: Path(s.removeprefix("builtin:")).stem)
@pytest.mark.parametrize("command", [["classify"], ["check", "all"]], ids=" ".join)
def test_every_max_residual_is_a_size(command, source):
    code, out, _ = run([*command, source, "--points", "8", "--format", "json", "--no-timestamp"])
    if code == EXIT_USAGE:  # the NaN fixture cannot be evaluated at a sample point
        assert source == NAN and out == ""
    else:
        assert_sizes(json.loads(out))


@pytest.mark.parametrize("seed", [0, 7, 9999])
def test_every_max_residual_is_a_size_on_the_heavy_input(tmp_path, seed):
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(WORKLOADS.heavy_structure(seed)[0]))
    for command, points in ((["validate"], "256"), (["classify"], "8"), (["check", "all"], "8")):
        code, out, err = run([*command, str(path), "--points", points, "--format", "json", "--no-timestamp"])
        assert code in (EXIT_OK, EXIT_FAIL) and err == "", (command, err)
        assert_sizes(json.loads(out))


@pytest.mark.parametrize("argv, code, err", [
    (["list"], EXIT_OK, ""),
    # the quasi gate passes at 2 of 32 points, and 4 gated checks fail there
    (["check", "all", "builtin:scaled?n=1,s=2", "--points", "32", "--seed", "7", "--tol-deriv", "6",
      "--format", "json", "--no-timestamp"], EXIT_FAIL, ""),
    # a 256-point chunk fails and is searched by halves; the error names the first failing point
    (["validate", NAN, "--points", "300", "--no-timestamp"], EXIT_USAGE,
     "error: at sample point [-0.8312499999999999, 0.7388888888888887, 0.26600000000000024]: Q is not finite\n"),
], ids=["list", "check-fails", "validate-error"])
def test_python_m_wqcm(argv, code, err):
    """`main()` in a child process where a RuntimeWarning is an error: its exit
    code, its stderr, and the stdout of `run_cli`."""
    proc = python(["-m", "wqcm", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, run(argv)[1], err)


def python(args, stdout=subprocess.PIPE, unbuffered=None):
    """A child interpreter that imports `wqcm` from `src`; RuntimeWarnings are
    errors.  `unbuffered` True or False sets or unsets PYTHONUNBUFFERED."""
    src = Path(__file__).parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["list"],
    ["check", "all", "builtin:sasakian-r7", "--points", "8", "--no-timestamp"],
    ["fbasis", "builtin:sasakian-r3", "--at", "0.2,-0.3,0.1"],
], ids=["list", "check-all-text", "fbasis"])
def test_a_closed_stdout_is_a_usage_error(argv, unbuffered):
    """stdout is a pipe whose read end is closed before the child starts.
    Unbuffered, the write fails; buffered, the flush after it does.  Either
    way one line on stderr and exit 2, and shutdown adds nothing."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = python(["-m", "wqcm", *argv], stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, "error: cannot write the report: Broken pipe\n")


FREEZE_PROBE = """
import atexit, gc, sys
sys.argv = ["wqcm", "list"]
atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))
from wqcm.cli import main
main()
"""


def test_main_freezes_the_collector_and_run_cli_does_not():
    proc = python(["-c", FREEZE_PROBE])
    assert proc.returncode == EXIT_OK
    assert proc.stderr.endswith("True\n")
    before = gc.get_freeze_count()
    assert run(["list"])[0] == EXIT_OK
    assert gc.get_freeze_count() == before


IMPORT_PROBE = """
import atexit, sys
sys.argv = ["wqcm", "check", "all", "builtin:sasakian-r3", "--points", "4", "--no-timestamp"]
atexit.register(lambda: print("numpy.random" in sys.modules, "hashlib" in sys.modules, file=sys.stderr))
from wqcm.cli import main
main()
"""


def test_a_check_command_loads_neither_numpy_random_nor_hashlib():
    """The guard directions are a fixed matrix, so a check command never
    imports `numpy.random` (nor, through `secrets`, `hashlib`)."""
    proc = python(["-c", IMPORT_PROBE])
    assert proc.returncode == EXIT_OK
    assert proc.stderr == "False False\n"


CATALOG_PROBE = """
import atexit, sys
sys.argv[0] = "wqcm"
atexit.register(lambda: print("wqcm.catalog" in sys.modules, file=sys.stderr))
from wqcm.cli import main
main()
"""


@pytest.mark.parametrize("argv, loaded", [
    (["validate", str(HEISENBERG), "--no-timestamp"], False),
    (["validate", "builtin:sasakian-r3", "--no-timestamp"], True),
    (["list"], True),
], ids=["file", "builtin", "list"])
def test_only_a_built_in_loads_the_catalog(argv, loaded):
    """A command on a structure file never imports `wqcm.catalog`."""
    proc = python(["-c", CATALOG_PROBE, *argv])
    assert proc.returncode == EXIT_OK
    assert proc.stderr == f"{loaded}\n"


def _nan_doc():
    return json.loads(Path(NAN).read_text())


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
def test_evaluation_errors_exit_without_traceback(tmp_path, command, edit, message):
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


@pytest.mark.parametrize("command", ["fbasis"])
@pytest.mark.parametrize("edit, message", EDITS)
def test_point_evaluation_errors_exit_without_traceback(tmp_path, command, edit, message):
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
    first, second = sample_points(2, 7, doc["domain"])
    assert first[0] + 0.5 < 0.0 < first[1] and second[0] + 0.5 > 0.0 > second[1]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["validate", str(path), "--points", "4", "--seed", "7"])
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: at sample point {first.tolist()}: metric is not positive definite\n"


def test_a_singular_q_is_named(tmp_path):
    # with xi = 1e-200 d/dz, xi (x) eta is 1e-400, which underflows to 0, so
    # Q = -f^2 + xi (x) eta is singular; eq14 inverts Q where the quasi gate passes
    doc = document("flat-const")
    doc["xi"] = ["0", "0", "1e-200"]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["check", "curvature", str(path), "--no-timestamp"])
    assert code == EXIT_USAGE and out == ""
    assert err == "error: at sample point [-0.8312499999999999, 0.7388888888888887, 0.26600000000000024]: Q is singular\n"


@pytest.mark.parametrize("command", [["check", "all"], ["classify"], ["validate"]], ids=" ".join)
def test_error_in_a_block_names_its_first_failing_point(tmp_path, monkeypatch, command):
    # g_11 = x - x_k is positive at the lanes before k and 0 at lane k, so
    # the Cholesky of the whole block fails; its chunk is then searched by
    # halves, and the error is that of lane k alone
    points = sample_points(32, 7, document("flat-const")["domain"])
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


@pytest.mark.parametrize("command", [["check", "all"], ["classify"], ["validate"]], ids=" ".join)
def test_tape_error_at_lane_40_names_its_point(tmp_path, monkeypatch, command):
    # g_11 = (x - x_40)^-2 fails in the tape at lane 40 alone.  For `check
    # all` (jets of order 2, 32-point chunks) the first chunk passes whole,
    # and the second is searched by halves.  For `classify` and `validate`
    # (order 1) the tape fails over the one 64-point chunk before any state
    # is built, and its first half passes whole.  Either way lanes 32-39
    # pass, and 40-47, 40-43, 40-41 and 40 fail in the tape
    points = sample_points(64, 7, document("flat-const")["domain"])
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
    points = sample_points(32, 7, document("flat-const")["domain"])
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
    for command in (["validate"], ["classify"], ["check", "all"]):
        for form in ("text", "json"):
            code, out, _ = run([*command, str(path), "--points", "2", "--no-timestamp", "--format", form])
            assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
            if form == "json" and code != EXIT_USAGE:
                assert_sizes(json.loads(out))
