"""The benchmark's own correctness oracle, run in tier-1: every workload of
`perfbench/workloads.py`, through `run_cli`, gives the (id, verdict, points)
rows of `perfbench/expected.json` and exits 0, and the set-up probe of
`perfbench/run.py` builds each workload's structure.  The workloads module is
loaded read-only: no bytecode is written next to it.  The probe's source is
read out of `run.py` with `ast`; that module is not imported."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import load_script
from wqcm.cli import EXIT_OK, run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


WORKLOADS = load_script(PERFBENCH / "workloads.py")


@pytest.mark.parametrize("seed", [0, 7, 9999])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_matches_expected_signature(tmp_path, name, seed):
    workload = WORKLOADS.WORKLOADS[name]
    heavy = tmp_path / "heavy.json"
    if workload.builtin is None:
        heavy.write_text(json.dumps(WORKLOADS.heavy_structure(seed)[0]))
    report = tmp_path / "report.json"
    assert run_cli(workload.argv(workload.source(heavy), seed, report)) == EXIT_OK
    assert WORKLOADS.signature(json.loads(report.read_text())) == WORKLOADS.expected_signature(workload)


def setup_probe() -> str:
    """The `SETUP` string of `perfbench/run.py`: the program of the set-up probe."""
    module = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    (value,) = (
        node.value for node in module.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SETUP"]
    )
    return ast.literal_eval(value)


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_setup_probe_builds_the_structure(tmp_path, name):
    """The probe as `run.py` spawns it, from the repository root: a probe that
    fails counts as a failed operation of the benchmark."""
    workload = WORKLOADS.WORKLOADS[name]
    heavy = tmp_path / "heavy.json"
    if workload.builtin is None:
        heavy.write_text(json.dumps(WORKLOADS.heavy_structure(7)[0]))
    argv = [sys.executable, "-c", setup_probe(), *workload.setup_args(heavy)]
    done = subprocess.run(argv, cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, f"7 {np.__version__}\n"), done.stderr
