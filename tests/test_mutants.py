"""The mutation checks in ``tests/mutants.py`` stay applicable: each mutant's
``old`` text occurs exactly once in its file, so a refactor that moves or
rewrites the code fails here until the mutant moves with it, and each test it
names is defined. ``python tests/mutants.py`` runs the mutants themselves."""

import re
from pathlib import Path

import pytest
from mutants import MUTANTS, PACKAGE

ROOT = Path(__file__).resolve().parents[1]


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 8


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_edits_one_place_and_names_defined_tests(mutant):
    source = (PACKAGE / mutant.file).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(?:\[.+\])?", test).groups()
        assert f"\ndef {name}(" in (ROOT / path).read_text(), test
