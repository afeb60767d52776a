"""The sites and mutants of `tests/mutation_census.py`, and its list of
equivalent mutants against the current tree.  The script is loaded
read-only: no bytecode is written next to it."""

import ast
from pathlib import Path

from conftest import load_script

ROOT = Path(__file__).resolve().parent.parent
CENSUS = load_script(ROOT / "tests" / "mutation_census.py")

SOURCE = '''
def f(a, b):
    k = a + b * 2 - 1
    k += -a
    return [k - (a * b), +b]


class C:
    def g(self, x):
        x -= 1
        return x / 2 + x ** 2


y = f(1, 2) + 3
'''


def _ops(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.BinOp, ast.AugAssign))]


def test_every_binary_and_augmented_plus_and_minus_is_a_site():
    # unary signs, * / ** and the + of other syntax are no sites
    assert [(s.line, s.function, s.text) for s in CENSUS.sites(SOURCE)] == [
        (3, "f", "a + b * 2 - 1"),
        (3, "f", "a + b * 2"),
        (4, "f", "k += -a"),
        (5, "f", "k - a * b"),
        (10, "C.g", "x -= 1"),
        (11, "C.g", "x / 2 + x ** 2"),
        (14, "<module>", "f(1, 2) + 3"),
    ]


def test_each_mutant_flips_exactly_one_operator():
    source = ast.parse(SOURCE)
    mutants = []
    for k, site in enumerate(CENSUS.sites(SOURCE)):
        mutants.append(CENSUS.mutant(SOURCE, k))
        tree = ast.parse(mutants[-1])
        changed = [(m, type(s.op)) for m, s in zip(_ops(tree), _ops(source)) if type(m.op) is not type(s.op)]
        assert len(changed) == 1
        (node, op), = changed
        assert {type(node.op), op} == {ast.Add, ast.Sub}
        # flipped back, the mutant is the source, and the flip was at site k
        node.op = op()
        assert ast.unparse(node) == site.text
        assert ast.dump(tree) == ast.dump(source)
    assert len(set(mutants)) == len(mutants)


def test_each_equivalent_mutant_names_one_site_of_the_tree():
    for file, function, text, why in CENSUS.EQUIVALENT:
        matches = [s for s in CENSUS.sites((ROOT / file).read_text()) if (s.function, s.text) == (function, text)]
        assert len(matches) == 1, (file, function, text)
        assert CENSUS.equivalent(file, matches[0]) == why
