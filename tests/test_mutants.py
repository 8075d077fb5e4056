"""Each row of the mutation table in tests/mutants.py can be planted and
names tests that exist.  Whether its tests kill the planted fault takes
a subprocess per row; ``python tests/mutants.py``, a CI step of its own,
checks that."""

import importlib
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, planted
from test_bad_inputs import _OWN_ROWS

_OWN_ROW_IDS = {r.id for r in _OWN_ROWS}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_row_is_well_formed(mutant):
    planted(mutant)
    for killer in mutant.killers:
        path, *owners, test = killer.split("::")
        assert (ROOT / path).is_file(), killer
        owner = importlib.import_module(Path(path).stem)
        for name in owners:
            owner = getattr(owner, name)
        name, _, param = test.partition("[")
        assert callable(getattr(owner, name, None)), killer
        if name == "test_bad_input":
            assert param[:-1] in _OWN_ROW_IDS, killer


def test_mutant_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(set(ids)) == len(ids)
