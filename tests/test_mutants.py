"""The committed mutants of tests/mutants.py still name code that exists."""

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
