"""Command-line driver.

    wqcm validate  SOURCE [options]        assert the weak-structure axioms
    wqcm classify  SOURCE [options]        report class membership (informational)
    wqcm check {identity|curvature|theorems|all} SOURCE [options]
    wqcm fbasis    SOURCE --at x,y,z       adapted basis at a point
    wqcm list                              built-in structure keys

SOURCE is either a JSON structure-definition file or "builtin:<key>[?n=..,s=..]";
a key takes the comma-separated parameters `catalog.PARAMETERS` names, each
converted to the type named there, and any other parameter or a value that
does not convert is a usage error.  Unless --no-timestamp is given, a
report ends with the UTC time at which it was made.

Exit codes: 0 all asserted checks pass (skipped checks never count),
1 at least one failure, 2 input or usage error, including a structure that
cannot be evaluated at a sample point or at the --at point (the message
names the point) and output that cannot be written, to a closed stdout
too.  JSON reports go to stdout (or --output); diagnostics go to stderr.

One command is one process.  `main()`, the entry point of the console
script and of `python -m wqcm`, freezes the garbage collector before it
runs the command, so that neither the run nor interpreter shutdown walks
what the imports built.  `run_cli` changes nothing process-wide, so it can
be called in process.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .exprdsl import ExprSyntaxError, SchemaError, StructureDef, eval_tape, load_structure_def
from .structure import PointState
from .suites import CONCLUSION_FACTOR, EvaluationError, Tolerances, emit_report, evaluate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# The sample points are all held, as the rows of one float array, before the
# first check runs: `validate` on sasakian-r7 peaks about 60 B per point above
# 33 MB (56 B is the row), so a count beyond this would only exhaust memory.
MAX_POINTS = 1_000_000


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _load_source(source: str) -> StructureDef:
    if source.startswith("builtin:"):
        from . import catalog as cat  # only a built-in needs it

        spec = source.removeprefix("builtin:")
        key, _, query = spec.partition("?")
        if key not in cat.keys():
            raise CliError(f"unknown builtin key {key!r}; `wqcm list` names them")
        types, values = cat.PARAMETERS.get(key, {}), {}
        for item in query.split(",") if query else ():
            k, _, v = (part.strip() for part in item.partition("="))
            if not v:
                raise CliError(f"bad builtin parameter {item!r}")
            if k not in types or k in values:
                takes = " and ".join(types) or "no parameters"
                raise CliError(f"builtin:{key} takes {takes}; cannot use {item!r}")
            try:
                values[k] = types[k](v)
            except ValueError:
                raise CliError(f"builtin:{key} parameter {k} must be of type {types[k].__name__}, got {v!r}") from None
        try:
            return cat.catalog(key, **values)
        except ValueError as exc:
            raise CliError(f"cannot build builtin structure {spec!r}: {exc}") from exc
    path = Path(source)
    try:  # a missing path, a directory or a FIFO is not opened; a name too long raises
        if not path.is_file():
            raise CliError(f"no such structure file: {source}")
        return load_structure_def(path.read_bytes())
    except OSError as exc:
        raise CliError(f"cannot read {source}: {exc.strerror or exc}") from exc
    except (SchemaError, ExprSyntaxError) as exc:
        raise CliError(f"cannot load {source}: {exc}") from exc


def _parse_point(text: str, sdef: StructureDef) -> np.ndarray:
    try:
        coords = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad point {text!r}") from exc
    if len(coords) != sdef.dim:
        raise CliError(f"point {text!r} has {len(coords)} coordinates, chart needs {sdef.dim}")
    if not sdef.contains(coords):
        raise CliError(f"point {text!r} is outside the chart domain {list(sdef.domain)}")
    return np.array(coords)


def _number_in(kind, low, high=math.inf):
    """argparse type: a number of `kind` (int or float) from `low` to `high`;
    a float must also be finite."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_COUNT, _SEED = _number_in(int, 1, MAX_POINTS), _number_in(int, 0)
# the largest tolerance whose conclusion tolerance (CONCLUSION_FACTOR times it) is finite
_TOL = _number_in(float, 0.0, sys.float_info.max / CONCLUSION_FACTOR)
_SOURCE_HELP = "structure file or builtin:<key>[?n=..,s=..]"


def _add_common(p: _Parser) -> None:
    p.add_argument("source", help=_SOURCE_HELP)
    p.add_argument("--points", type=_COUNT, default=32)
    p.add_argument("--seed", type=_SEED, default=7)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.add_argument("--no-timestamp", action="store_true")
    for tier, default in Tolerances()._asdict().items():
        p.add_argument(f"--tol-{tier}", type=_TOL, default=default)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wqcm", description="weak contact-structure verification")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("validate"))
    _add_common(sub.add_parser("classify"))
    check = sub.add_parser("check")
    check.add_argument("suite", choices=("identity", "curvature", "theorems", "all"))
    _add_common(check)
    fbasis = sub.add_parser("fbasis")
    fbasis.add_argument("source", help=_SOURCE_HELP)
    fbasis.add_argument("--at", required=True, help="comma-separated chart coordinates")
    sub.add_parser("list")
    return parser


def _write(payload: bytes, output, stdout) -> None:
    """Write `payload` to the file `output`, or to stdout and flush it, so that
    a closed stdout is a usage error as an unwritable file is."""
    try:
        if output:
            Path(output).write_bytes(payload)
        else:
            stdout.write(payload.decode())
            stdout.flush()
    except OSError as exc:
        raise CliError(f"cannot write {output or 'the report'}: {exc.strerror or exc}") from exc


def _fbasis(sdef: StructureDef, point: np.ndarray, args) -> tuple[list[str], bool]:
    # the f-basis reads no derivative: the values alone
    st = PointState(point[None], eval_tape(sdef.tape, point[None], 0))
    (basis,), (lam,), (g,) = st.fbasis[0], st.fbasis[1], st.g
    lines = [f"f-basis of {sdef.name} at ({args.at})", f"  xi = {basis[:, 0].tolist()}"]
    ok = True
    for i, lam_i in enumerate(lam.tolist(), start=1):
        e, fe = basis[:, 2 * i - 1], basis[:, 2 * i]
        lines.append(f"  lambda_{i} = {lam_i!r}")
        lines.append(f"  e_{i}  = {e.tolist()}")
        lines.append(f"  fe_{i} = {fe.tolist()}")
        ok = ok and abs(fe @ g @ fe - lam_i) < 1e-9
    # one pair at a time: a Gram matrix rounds differently
    vecs = list(basis.T)
    ortho = max(abs(u @ g @ v) for a, u in enumerate(vecs) for v in vecs[a + 1 :])
    lines.append(f"  max pairwise g-product = {ortho:.3e}")
    return lines, ok and ortho < 1e-9


def _join_at(argv) -> list[str]:
    """`argv` with `--at X` written `--at=X` when X starts with a minus sign
    and a digit or a point (no option does): argparse reads such a value as
    an option unless it is one negative number, and a point has commas."""
    out = []
    for token in argv:
        if out and out[-1] == "--at" and re.match(r"-[0-9.]", token):
            out[-1] = f"--at={token}"
        else:
            out.append(token)
    return out


def run_cli(argv, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_at(argv))
    except CliError as exc:
        stderr.write(f"error: {exc}\n")
        parser.print_usage(stderr)
        return EXIT_USAGE

    # the verdicts judge NaN and inf themselves: numpy's floating-point
    # warnings would only repeat them on stderr
    with np.errstate(all="ignore"):
        try:
            if args.command == "list":
                from . import catalog as cat  # only a built-in needs it

                _write("".join(key + "\n" for key in cat.keys()).encode(), None, stdout)
                return EXIT_OK

            sdef = _load_source(args.source)
            if args.command in ("validate", "classify", "check"):
                suite = args.suite if args.command == "check" else args.command
                tolerances = Tolerances(args.tol_algebraic, args.tol_deriv, args.tol_curv)
                report = evaluate(sdef, suite, args.points, args.seed, tolerances)
                if not args.no_timestamp:
                    from datetime import datetime, timezone  # only a timestamp needs it

                    report.timestamp = datetime.now(timezone.utc).isoformat()
                _write(emit_report(report, args.format), args.output, stdout)
                # classification is reporting, not assertion
                return EXIT_FAIL if report.failed and suite != "classify" else EXIT_OK

            point = _parse_point(args.at, sdef)
            try:
                lines, ok = _fbasis(sdef, point, args)
            except (ValueError, ArithmeticError) as exc:
                raise CliError(f"at point {point.tolist()}: {exc}") from exc
            _write(("\n".join(lines) + f"\n  verdict = {'pass' if ok else 'fail'}\n").encode(), None, stdout)
            return EXIT_OK if ok else EXIT_FAIL
        except (CliError, EvaluationError) as exc:
            stderr.write(f"error: {exc}\n")
            return EXIT_USAGE


def main() -> None:
    # one command is one process, and what the imports built lives until
    # exit: the collector should neither re-walk it during the run nor tear
    # it down at shutdown
    gc.freeze()
    code = run_cli(sys.argv[1:])
    try:  # a failed write, which run_cli reported, can leave bytes buffered
        sys.stdout.flush()
    except OSError:  # shutdown would flush them again: send them to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
