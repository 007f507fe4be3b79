import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_only_census_loads_numpy():
    """In a fresh process the one-state modules load no numpy, and census
    does."""
    probe = (
        "import sys\n"
        "import stabmmi.gf2, stabmmi.tableau, stabmmi.graphs, stabmmi.entropy, stabmmi.star\n"
        "import stabmmi.cli\n"
        "print('numpy' in sys.modules)\n"
        "import stabmmi.census\n"
        "print('numpy' in sys.modules)"
    )
    src = Path(stabmmi.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
