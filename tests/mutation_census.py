"""A sign-flip mutation census of `src/wqcm`: which flipped `+` or `-` does
tier-1 fail to notice?

    python tests/mutation_census.py FILE...

FILE names source files of the tree, such as `src/wqcm/geometry.py`.  Each
binary `+` or `-` and each `+=` or `-=` in them is a site.  A mutant flips the
operator of one site: the file is parsed with `ast`, the one operator is
flipped, and the `ast.unparse` output is written over the file in a temporary
copy of the tree.  Tier-1 then runs in that copy with `-x` and without
bytecode.  Two test files are left out: `tests/test_source_rules.py`, since
`ast.unparse` rewrites the lines it reads, and `tests/test_mutation_census.py`,
since it reads the expression text of each `EQUIVALENT` entry from the copy,
so flipping a listed site would fail it and the census would count that
mutant as killed by a test of this script, not of the maths.

Before the mutants, the copy is run with every FILE unparsed but unflipped;
the census stops if that fails.  Its wall time T sets the limit of every
mutant run to 5 T.  The mutants run one after another, each in a new session,
and a run that outlives 5 T is killed with its whole process group, since some
mutants loop forever (`k += 1` in `suites._primes`).

A mutant survives when tier-1 passes on it.  Each survivor is printed as
file, line, function and the text of its expression.  Survivors listed in
`EQUIVALENT` (file, function and expression text, with the reason no test
can tell them from the source) are marked so; the script exits 1 if any
other mutant survives, and 2 if the census cannot run.  Pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}

# (file, function, expression text as `ast.unparse` writes it, why flipping it changes nothing)
EQUIVALENT = (
    ("src/wqcm/suites.py", "_eq20_as_written", "u - st.ell @ u + st.xi @ (st.eta @ u)",
     "u is projected onto ker eta, so eta(u) = 0 and the term xi eta(u) is 0 with either sign"),
)


class Site(NamedTuple):
    line: int
    function: str  # the dotted names of the enclosing classes and functions, or <module>
    text: str  # the expression, or the augmented assignment, as `ast.unparse` writes it


def _sites(tree: ast.AST) -> list[tuple[ast.AST, Site]]:
    """The flippable nodes of `tree` with their sites, in source order."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in FLIPS:
            found.append((node, Site(node.lineno, ".".join(scope) or "<module>", ast.unparse(node))))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return sorted(found, key=lambda pair: (pair[0].lineno, pair[0].col_offset))


def sites(source: str) -> list[Site]:
    return [site for _, site in _sites(ast.parse(source))]


def mutant(source: str, k: int) -> str:
    """`source` unparsed with the operator of its site `k` flipped."""
    tree = ast.parse(source)
    node, _ = _sites(tree)[k]
    node.op = FLIPS[type(node.op)]()
    return ast.unparse(tree)


def equivalent(file: str, site: Site) -> str | None:
    """The reason the mutant at `site` of `file` cannot be killed, if it is listed."""
    return next((why for f, fn, text, why in EQUIVALENT if (f, fn, text) == (file, site.function, site.text)), None)


def _tier1(tree: Path, timeout: float | None) -> str:
    """Run tier-1 in `tree`: passed, failed (exit code N) or timeout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--deselect", "tests/test_source_rules.py", "--deselect", "tests/test_mutation_census.py"]
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return "passed" if code == 0 else f"failed (exit code {code})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    files = [Path(f).resolve().relative_to(ROOT).as_posix() for f in args.files]
    sources = {f: (ROOT / f).read_text() for f in files}
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for f, source in sources.items():
            (tree / f).write_text(ast.unparse(ast.parse(source)))
        unflipped_start = time.monotonic()
        if (outcome := _tier1(tree, None)) != "passed":
            print(f"tier-1 on the unflipped tree: {outcome}; no census", file=sys.stderr)
            return 2
        timeout = 5 * (time.monotonic() - unflipped_start)
        print(f"tier-1 on the unflipped tree passed; each mutant run is killed after {timeout:.0f} s", flush=True)
        count, survivors, unexplained = 0, [], 0
        for f, source in sources.items():
            unflipped = (tree / f).read_text()
            for k, site in enumerate(sites(source)):
                (tree / f).write_text(mutant(source, k))
                outcome = _tier1(tree, timeout)
                count += 1
                print(f"{f}:{site.line}  {site.function}  {site.text}  -> {outcome}", flush=True)
                if outcome == "passed":
                    survivors.append((f, site))
                    unexplained += equivalent(f, site) is None
            (tree / f).write_text(unflipped)
    print(f"\n{count} mutants, {len(survivors)} survive, {unexplained} not listed as equivalent "
          f"({time.monotonic() - start:.0f} s)")
    for f, site in survivors:
        why = equivalent(f, site)
        print(f"survivor {f}:{site.line}  {site.function}  {site.text}" + (f"  (equivalent: {why})" if why else ""))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
