"""The command matrix of `tests/report_matrix.py`: a source's commands do not
depend on which other sources there are, so a matrix run before a source was
added can still be diffed against one run after.  The script is loaded
read-only: no bytecode is written next to it."""

import importlib.util
import sys
from pathlib import Path

import pytest


def load_report_matrix():
    spec = importlib.util.spec_from_file_location("report_matrix", Path(__file__).resolve().parent / "report_matrix.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


MATRIX = load_report_matrix()


@pytest.mark.parametrize("name", MATRIX.FILES)
def test_dropping_a_source_drops_only_its_commands(name):
    docs = MATRIX.sources()
    full = MATRIX.commands(docs)
    without = MATRIX.commands({source: doc for source, doc in docs.items() if source != name})
    assert [c for c in full if name not in c] == [c for c in without if name not in c]
    assert all(c in full for c in without)
    assert any(c[:2] == ["fbasis", name] for c in full if c not in without)
