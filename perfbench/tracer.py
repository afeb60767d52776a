"""Traced run of one `wqcm` command, in a process of its own.

    python3 perfbench/tracer.py TRACE_OUT -- <wqcm arguments>

Run from the repository root.  Imports `wqcm.cli` from `src`, wraps the
public functions of each module in place, calls `wqcm.cli.run_cli` with the
arguments and writes the trace to TRACE_OUT as JSON:

    {"exit": int, "counts": {target: calls},
     "spans": [[name, start_s, end_s, parent_index], ...], "missing": [...]}

A wrapper replaces every name bound to the original function in the loaded
`wqcm` modules (`wqcm.suites.quasi_defect` as well as
`wqcm.classify.quasi_defect`), so calls are counted where they are looked
up.  Span targets also record one span per call; count targets only count,
because they run 10^5 times per command.  Spans are kept in memory and
written once, after the command returns.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, attribute path, record spans)
TARGETS = (
    ("wqcm.catalog", "catalog", True),
    ("wqcm.exprdsl", "load_structure_def", True),
    ("wqcm.exprdsl", "eval_jet", True),
    ("wqcm.geometry", "riemann", True),
    ("wqcm.classify", "validate_axioms", True),
    ("wqcm.suites", "run_all", True),
    ("wqcm.suites", "run_identity_suite", True),
    ("wqcm.suites", "run_curvature_suite", True),
    ("wqcm.suites", "run_theorem_suite", True),
    ("wqcm.suites", "report_from_axioms", True),
    ("wqcm.suites", "emit_report", True),
    ("wqcm.structure", "WeakACM.at", False),
    ("wqcm.structure", "PointState.__init__", False),
    ("wqcm.structure", "PointState.gdot", False),
    ("wqcm.classify", "quasi_defect", False),
    ("wqcm.classify", "direction_set", False),
    ("wqcm.classify", "f_basis", False),
    ("wqcm.linalg", "jacobi_eigh", False),
    ("numpy", "einsum", False),
)


class Tracer:
    def __init__(self):
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name: str, span: bool):
        counts = self.counts
        counts[name] = 0
        if not span:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return spanned

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed
        in `missing` and reads as zero calls."""
        modules = [m for k, m in sys.modules.items() if k == "wqcm" or k.startswith("wqcm.")]
        for module_name, path, span in TARGETS:
            name = f"{module_name.removeprefix('wqcm.')}.{path}"
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                self.counts[name] = 0
                continue
            wrapper = self._wrap(original, name, span)
            setattr(owner, attr, wrapper)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_OUT -- <wqcm arguments>")
    sys.path.insert(0, "src")
    from wqcm.cli import run_cli

    tracer = Tracer()
    tracer.install()
    code = run_cli(cli_args)
    Path(out).write_text(
        json.dumps(
            {"exit": code, "counts": tracer.counts, "spans": tracer.spans, "missing": tracer.missing}
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
