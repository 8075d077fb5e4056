"""Every mutant of the table in tests/mutants.py fails its named tests."""

import pytest

from mutants import MUTANTS, problems


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path):
    assert problems(mutant, tmp_path / "work") == []


def test_mutant_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(set(ids)) == len(ids)
