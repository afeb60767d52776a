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
names the point).  JSON reports go to stdout (or --output); diagnostics go
to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import catalog as cat
from .exprdsl import ExprSyntaxError, SchemaError, load_structure_def
from .structure import WeakACM
from .suites import EvaluationError, SamplePlan, Tolerances, emit_report, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _load_source(source: str) -> WeakACM:
    if source.startswith("builtin:"):
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
            sdef = cat.catalog(key, **values)
        except ValueError as exc:
            raise CliError(f"cannot build builtin structure {spec!r}: {exc}") from exc
        return WeakACM(sdef)
    path = Path(source)
    if not path.is_file():
        raise CliError(f"no such structure file: {source}")
    try:
        return WeakACM(load_structure_def(path.read_bytes()))
    except (SchemaError, ExprSyntaxError) as exc:
        raise CliError(f"cannot load {source}: {exc}") from exc


def _parse_point(text: str, acm: WeakACM) -> np.ndarray:
    try:
        coords = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad point {text!r}") from exc
    if len(coords) != acm.dim:
        raise CliError(f"point {text!r} has {len(coords)} coordinates, chart needs {acm.dim}")
    if not acm.sdef.contains(coords):
        raise CliError(f"point {text!r} is outside the chart domain {list(acm.sdef.domain)}")
    return np.array(coords)


def _number_at_least(kind, low):
    """argparse type: a number of `kind` (int or float) no smaller than
    `low`; a float must also be finite."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_COUNT, _SEED = _number_at_least(int, 1), _number_at_least(int, 0)
_TOL = _number_at_least(float, 0.0)
_SOURCE_HELP = "structure file or builtin:<key>[?n=..,s=..]"


def _add_common(p: _Parser) -> None:
    p.add_argument("source", help=_SOURCE_HELP)
    p.add_argument("--points", type=_COUNT, default=32)
    p.add_argument("--seed", type=_SEED, default=SamplePlan.seed)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.add_argument("--no-timestamp", action="store_true")
    for tier, default in asdict(Tolerances()).items():
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


def _write(payload: bytes, args, stdout) -> None:
    if args.output:
        try:
            Path(args.output).write_bytes(payload)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        stdout.write(payload.decode())


def _fbasis(acm: WeakACM, point: np.ndarray, args) -> tuple[list[str], bool]:
    st = acm.at(point)
    (basis,), (lam,), (g,) = st.fbasis[0], st.fbasis[1], st.g
    lines = [f"f-basis of {acm.name} at ({args.at})", f"  xi = {basis[:, 0].tolist()}"]
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


def run_cli(argv, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        stderr.write(f"error: {exc}\n")
        parser.print_usage(stderr)
        return EXIT_USAGE

    # the verdicts judge NaN and inf themselves: numpy's floating-point
    # warnings would only repeat them on stderr
    with np.errstate(all="ignore"):
        try:
            if args.command == "list":
                for key in cat.keys():
                    stdout.write(key + "\n")
                return EXIT_OK

            acm = _load_source(args.source)
            if args.command in ("validate", "classify", "check"):
                plan = SamplePlan(count=args.points, seed=args.seed)
                suite = args.suite if args.command == "check" else args.command
                tolerances = Tolerances(args.tol_algebraic, args.tol_deriv, args.tol_curv)
                report = run_suite(acm, suite, plan, tolerances)
                report.timestamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
                _write(emit_report(report, args.format), args, stdout)
                # classification is reporting, not assertion
                return EXIT_FAIL if report.failed and suite != "classify" else EXIT_OK

            point = _parse_point(args.at, acm)
            try:
                lines, ok = _fbasis(acm, point, args)
            except (ValueError, ArithmeticError) as exc:
                raise CliError(f"at point {point.tolist()}: {exc}") from exc
            stdout.write("\n".join(lines) + f"\n  verdict = {'pass' if ok else 'fail'}\n")
            return EXIT_OK if ok else EXIT_FAIL
        except (CliError, EvaluationError) as exc:
            stderr.write(f"error: {exc}\n")
            return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
