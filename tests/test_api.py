import importlib

import pytest

import stabmmi
from stabmmi import entropy, graphs, star


@pytest.mark.parametrize("module", stabmmi.__all__)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"stabmmi.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"stabmmi.{module}.__all__ names missing {name!r}"


def test_mmi_outcome_is_one_enum():
    """star takes the enum from graphs, so it needs no numpy."""
    assert entropy.MmiOutcome is star.MmiOutcome is graphs.MmiOutcome
