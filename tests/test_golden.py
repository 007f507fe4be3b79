"""Every golden case gives the exit code, stdout, stderr and written files
recorded in `golden/manifest.json`: the CLI's outputs stay byte-identical
unless a change means to move them (see `golden/regenerate.py`)."""

import json

import pytest

from golden.regenerate import MANIFEST, record

CASES = json.loads(MANIFEST.read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_golden_output(case, tmp_path):
    assert record(case["argv"], tmp_path) == case
