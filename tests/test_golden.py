"""Every golden case gives the exit code, stdout, stderr and written files
recorded in `golden/manifest.json`, and every library call the listings
recorded there: the outputs stay byte-identical unless a change means to
move them (see `golden/regenerate.py`)."""

import json

import pytest

from golden.regenerate import CENSUS_NS, MANIFEST, cases, record, record_census

MANIFEST_ENTRIES = json.loads(MANIFEST.read_text())
CASES, CALLS = MANIFEST_ENTRIES["cases"], MANIFEST_ENTRIES["calls"]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_golden_output(case, tmp_path):
    assert record(case["argv"], tmp_path) == case


@pytest.mark.parametrize("call", CALLS, ids=[call["call"] for call in CALLS])
def test_golden_call(call):
    assert record_census(call["n"]) == call


def test_manifest_lists_every_case_and_call():
    """The manifest holds exactly the cases and calls `regenerate.py` lists,
    in its order, so none is added or dropped without regenerating."""
    assert [case["argv"] for case in CASES] == cases()
    assert [call["n"] for call in CALLS] == list(CENSUS_NS)
