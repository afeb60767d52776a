"""A fixed matrix of 269 `wqcm` commands, run in process, to compare two trees.

    python tests/report_matrix.py SRC OUT.json     run the matrix against the
                                                  `wqcm` package under SRC
                                                  (a checkout or its `src`)
    python tests/report_matrix.py --diff A.json B.json
                                                  list the commands whose
                                                  outputs differ; exit 1 if any

OUT.json maps each command line to [exit code, stdout, stderr].  `--diff`
follows each command that differs with how: `residuals only, max |Δ| = …`
when the exit codes, the stderr and the stdout agree but for the residuals,
and `differs` otherwise.  A residual is the `max_residual` field of a JSON
report, or the third column from the end of a text report row (residual,
tol, verdict).  The last line counts the commands that differ, those that
differ in residuals only, and their largest |Δ|.  The inputs
are the same whichever tree runs: the built-ins, six structure files of
`tests/data` and the validate-heavy input `heavy_structure(7)` of
`perfbench/workloads.py`, which is loaded read-only (no bytecode is written
next to it).  The files are copied into a temporary directory and named
relatively, so the command lines and messages do not depend on where the
script runs.  Pytest does not collect this file.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import random
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

BUILTINS = [
    ("sasakian-r3", {}), ("sasakian-r5", {}), ("sasakian-r7", {}),
    ("scaled", {"n": 1, "s": 2.0}), ("scaled", {"n": 3, "s": 2.0}), ("scaled", {"n": 2, "s": 0.5}),
    ("flat-const", {}),
]
# sasakian-r3-trh2-overflow and -huge-metric are crafted: tr h^2 overflows to
# -inf at every point, and a metric entry of 1e300 overflows the frame
# products of the f-basis; heisenberg-exp-x2 is contact metric with h != 0
# and Q != id
FILES = ["sasakian-r3-padded.json", "dense-r13-const.json", "sasakian-r3-nan.json", "sasakian-r3-trh2-overflow.json",
         "sasakian-r3-huge-metric.json", "heisenberg-exp-x2.json"]
HEAVY = "heavy.json"
REPORTS = [["validate"], ["classify"], *(["check", s] for s in ("identity", "curvature", "theorems", "all"))]
JSON = ["--format", "json", "--no-timestamp"]
FBASIS_POINTS, FBASIS_SEED = 3, 20261020  # f-basis points per source


def _builtin(key, params) -> str:
    query = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in params.items())
    return f"builtin:{key}" + (f"?{query}" if query else "")


def _heavy_document() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module  # the dataclasses of the module look it up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module.heavy_structure(7)[0]


def commands(documents: dict) -> list[list[str]]:
    """The matrix: `documents` maps each source to its structure document."""
    out = []
    for source in documents:
        for points, seed in ((8, 7), (40, 3)):
            out += [[*c, source, "--points", str(points), "--seed", str(seed), *JSON] for c in REPORTS]
        out += [[*c, source, "--points", "300", "--seed", "11", *JSON] for c in REPORTS[:3]]
        out.append(["check", "all", source, "--points", "4", "--no-timestamp"])
    # the quasi gate passes at 2 of the 32 points
    out.append(["check", "all", "builtin:scaled?n=1,s=2", "--points", "32", "--seed", "7", "--tol-deriv", "5", *JSON])
    # a tolerance whose tenfold overflows, and the largest one whose tenfold does not
    for tol in ("1e308", repr(sys.float_info.max / 10)):
        out.append(["check", "theorems", "sasakian-r3-trh2-overflow.json", "--points", "8", "--tol-curv", tol, *JSON])
    # f-basis points drawn from each domain widened by 10% on both sides, from
    # a generator of the source's own, so a source's points do not depend on
    # which other sources there are
    for source, doc in documents.items():
        rng = random.Random(f"{FBASIS_SEED} {source}")
        for _ in range(FBASIS_POINTS):
            coords = [lo + (hi - lo) * rng.uniform(-0.1, 1.1) for lo, hi in doc["domain"]]
            out.append(["fbasis", source, "--at", ",".join(f"{x:.6g}" for x in coords)])
    return out


def sources() -> dict:
    """Each source of the matrix, as named on the command line -> its structure document."""
    from wqcm.catalog import document

    out = {_builtin(key, params): document(key, **params) for key, params in BUILTINS}
    out.update((name, json.loads((DATA / name).read_text())) for name in FILES)
    out[HEAVY] = _heavy_document()
    return out


def run_matrix(src: Path) -> dict:
    if (src / "src" / "wqcm").is_dir():
        src = src / "src"
    sys.path.insert(0, str(src))
    from wqcm.cli import run_cli

    docs, results, cwd = sources(), {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in FILES:
            shutil.copy(DATA / name, Path(tmp) / name)
        (Path(tmp) / HEAVY).write_text(json.dumps(docs[HEAVY]))
        os.chdir(tmp)
        try:
            for argv in commands(docs):
                out, err = io.StringIO(), io.StringIO()
                try:
                    code = run_cli(argv, stdout=out, stderr=err)
                except Exception:  # a traceback is an outcome to compare too
                    code = "raised"
                    err.write(traceback.format_exc().splitlines()[-1] + "\n")
                results[" ".join(argv)] = [code, out.getvalue(), err.getvalue()]
        finally:
            os.chdir(cwd)
    return results


def _without_residuals(node, residuals: list):
    """A JSON value with each `max_residual` set to None; the values are
    appended to `residuals` in document order."""
    if isinstance(node, list):
        return [_without_residuals(v, residuals) for v in node]
    if not isinstance(node, dict):
        return node
    if "max_residual" in node:
        residuals.append(node["max_residual"])
    return {k: None if k == "max_residual" else _without_residuals(v, residuals) for k, v in node.items()}


def _text_without_residuals(stdout: str, residuals: list) -> list:
    """The lines of a text report, each row (ending in residual, tol and
    verdict) split with its residual set to None; the residuals are appended
    to `residuals` in line order."""
    lines = []
    for line in stdout.splitlines():
        parts = line.rsplit(None, 3)
        if len(parts) == 4 and parts[3] in ("pass", "fail", "skipped"):
            residuals.append(parts[1])
            line = [parts[0], None, *parts[2:]]
        lines.append(line)
    return lines


def _residual_change(a, b) -> float | None:
    """The largest |Δ| of a residual when two outcomes [exit code, stdout,
    stderr] of one command differ in their residuals only, else None (also
    where the command is missing)."""
    if a is None or b is None or a[0] != b[0] or a[2] != b[2]:
        return None
    ra, rb = [], []
    try:
        same = _without_residuals(json.loads(a[1]), ra) == _without_residuals(json.loads(b[1]), rb)
    except ValueError:  # text stdout
        ra, rb = [], []
        same = _text_without_residuals(a[1], ra) == _text_without_residuals(b[1], rb)
    if not same or ra == rb:
        return None
    return max(abs(float(x) - float(y)) for x, y in zip(ra, rb) if x != y)


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        differ = [c for c in dict.fromkeys([*a, *b]) if a.get(c) != b.get(c)]
        deltas = {c: _residual_change(a.get(c), b.get(c)) for c in differ}
        for command, delta in deltas.items():
            print(f"{command}: " + ("differs" if delta is None else f"residuals only, max |Δ| = {delta:.3g}"))
        changes = [delta for delta in deltas.values() if delta is not None]
        print(f"{len(differ)} of {len(set(a) | set(b))} commands differ, {len(changes)} in residuals only"
              + (f", max |Δ| = {max(changes):.3g}" if changes else ""))
        return 1 if differ else 0
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    results = run_matrix(Path(argv[0]).resolve())
    Path(argv[1]).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} commands", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
