"""The mutation checks in ``tests/mutants.py`` stay applicable: each mutant's
``old`` text occurs exactly once in its file, so a refactor that moves or
rewrites the code fails here until the mutant moves with it, and each test it
names is defined. ``python tests/mutants.py`` runs the mutants themselves."""

import re
import subprocess
from pathlib import Path

import mutants
import pytest
from mutants import MUTANTS, PACKAGE, TIMEOUT_S

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


@pytest.mark.parametrize("late", ["mutant", "clean-copy"])
def test_a_run_past_the_time_limit_is_named_and_counted_as_not_killed(late, monkeypatch, capsys):
    """A faked ``subprocess.run`` stands in for every pytest child, so none starts."""
    mutant = MUTANTS[0]
    timeouts = []

    def fake_run(args, **kwargs):
        timeouts.append(kwargs["timeout"])
        if late == "clean-copy" or len(timeouts) > 1:
            raise subprocess.TimeoutExpired(args, kwargs["timeout"])
        return subprocess.CompletedProcess(args, 0, stdout="", stderr="")

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    assert mutants.main([mutant.name]) == 1
    out = capsys.readouterr().out
    named = "the clean copy" if late == "clean-copy" else mutant.name
    assert f"TIMED OUT  {named}: " in out and mutant.tests[0] in out
    assert timeouts == [TIMEOUT_S] * (1 if late == "clean-copy" else 2)
    if late == "mutant":
        assert "0 of 1 mutants killed" in out
