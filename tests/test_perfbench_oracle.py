"""The benchmark's own correctness oracle, run in tier-1: every workload of
`perfbench/workloads.py`, through `run_cli`, gives the (id, verdict, points)
rows of `perfbench/expected.json` and exits 0.  The workloads module is
loaded read-only: no bytecode is written next to it."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from wqcm.cli import EXIT_OK, run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module  # the dataclasses of the module look it up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


WORKLOADS = load_workloads()


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
