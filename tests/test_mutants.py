"""The committed mutants of tests/mutants.py still name code and tests that exist."""

import ast
import os

from mutants import MUTANTS, ROOT


def test_each_mutant_snippet_occurs_once_in_src():
    package = os.path.join(ROOT, "src", "mpursuit")
    sources = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        counts = {name: text.count(m.snippet) for name, text in sources.items()}
        assert counts[m.path] == 1 and sum(counts.values()) == 1, m.name
        assert m.snippet != m.replacement and m.tests, m.name


def test_each_mutant_test_id_names_a_test_function_of_its_file():
    # a renamed or deleted test would otherwise only stop `python tests/mutants.py`
    defined = {}
    for m in MUTANTS:
        for test in m.tests:
            path, _, name = test.partition("::")
            if path not in defined:
                with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                defined[path] = {node.name for node in tree.body
                                 if isinstance(node, ast.FunctionDef)
                                 and node.name.startswith("test_")}
            assert name.partition("[")[0] in defined[path], (m.name, test)
