"""Rules on the source text: lines of at most 122 characters in `src/wqcm`
and `tests`, and `src/wqcm` imports neither sympy (an optional test extra)
nor dataclasses (generating their code costs every command at import)
nor numpy's random package (its import costs every command time and
memory), and names `WeakACM` only
where it defines it: callers take the `StructureDef`, and the name is left
only for the benchmark's set-up probe."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wqcm"
SRC_FILES = [p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
PY_FILES = [p for d in (SRC, ROOT / "tests") for p in d.rglob("*.py")]

# (pattern, files in which no line may match it)
RULES = [
    (r".{123,}", PY_FILES),
    (r"^\s*(import|from) sympy", SRC_FILES),
    (r"^\s*(import|from) dataclasses", SRC_FILES),
    (r"np\.random|numpy\.random", SRC_FILES),
    (r"^(?!def WeakACM\().*WeakACM", SRC_FILES),
]


def test_source_rules():
    assert SRC / "structure.py" in SRC_FILES and Path(__file__).resolve() in PY_FILES
    breaches = []
    for pattern, files in RULES:
        rule = re.compile(pattern)
        for path in files:
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
                if rule.search(line):
                    breaches.append(f"{path.relative_to(ROOT)}:{number}: matches {pattern!r}")
    assert not breaches, "\n".join(breaches)
