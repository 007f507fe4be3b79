"""The mutation table stays applicable: each entry's old text occurs exactly
once in its file, and its test paths exist.  The table itself runs outside
Tier-1 (`python tests/mutants.py`)."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / path).is_file() for path in mutant.tests)
