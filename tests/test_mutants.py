"""The mutant table of tests/mutants.py still fits the tree: every old
text occurs exactly once, so that every row can be applied.  Nothing is
applied here; `python tests/mutants.py` runs the table."""

import pytest

import mutants


def test_every_old_text_occurs_once():
    for m in mutants.MUTANTS:
        mutants.source(mutants.ROOT, m)
        assert m.new != m.old and m.tests, m.name
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    missing = mutants.MUTANTS[0]._replace(old="no such text")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.source(mutants.ROOT, missing)
