import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stabmmi
from stabmmi import census, entropy, graphs, star, tableau
from stabmmi.entropy import EntropyVector, MmiInstance, MmiTally
from stabmmi.gf2 import BitMatrix, Subspace
from stabmmi.graphs import Graph, MmiOutcome
from stabmmi.star import BlockSpaces, StarClassification, StarPartition
from stabmmi.tableau import Tableau, zero_state


@pytest.mark.parametrize("module", stabmmi.__all__)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"stabmmi.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"stabmmi.{module}.__all__ names missing {name!r}"


def test_mmi_outcome_is_one_enum():
    """star takes the enum from graphs, so it needs no numpy."""
    assert entropy.MmiOutcome is star.MmiOutcome is graphs.MmiOutcome


ONE_STATE_IMPORTS = (
    "import stabmmi.gf2, stabmmi.tableau, stabmmi.graphs, stabmmi.entropy, stabmmi.star\n"
    "import stabmmi.cli"
)


def _modules_added(*steps: str) -> list[set[str]]:
    """Run the import steps in turn in a fresh process; after each, the
    modules loaded that the bare interpreter (site included) had not."""
    probe = "import sys\nbase = set(sys.modules)\n" + "".join(
        f"{step}\nprint(*sorted(set(sys.modules) - base))\n" for step in steps
    )
    src = Path(stabmmi.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [set(line.split()) for line in proc.stdout.splitlines()]


def test_only_census_loads_numpy():
    """In a fresh process the one-state modules load no numpy, and census
    does."""
    one_state, with_census = _modules_added(ONE_STATE_IMPORTS, "import stabmmi.census")
    assert "numpy" not in one_state
    assert "numpy" in with_census


def test_only_census_loads_dataclasses():
    """The value types outside census are namedtuples: the one-state modules
    load no dataclasses, and census, whose result rows are dataclasses, does."""
    one_state, with_census = _modules_added(ONE_STATE_IMPORTS, "import stabmmi.census")
    assert "dataclasses" not in one_state
    assert "dataclasses" in with_census


# each value type outside census: an instance and the repr it had as a frozen dataclass
VALUES = {
    "BitMatrix": (lambda: BitMatrix((1, 2), 2), "BitMatrix(rows=(1, 2), cols=2)"),
    "Subspace": (
        lambda: Subspace(2, BitMatrix((3, 1), 2)),
        "Subspace(ambient=2, basis=BitMatrix(rows=(1, 2), cols=2))",
    ),
    "Graph": (lambda: Graph(2, (2, 1)), "Graph(n=2, adj=(2, 1))"),
    "Tableau": (
        lambda: zero_state(1),
        "Tableau(n=1, x=BitMatrix(rows=(0,), cols=1), z=BitMatrix(rows=(1,), cols=1))",
    ),
    "EntropyVector": (lambda: EntropyVector(2, (1, 1, 0)), "EntropyVector(n=2, values=(1, 1, 0))"),
    "MmiInstance": (lambda: MmiInstance(4, 1, 2), "MmiInstance(i=1, j=2, k=4)"),
    "MmiTally": (lambda: MmiTally(1, 2, 4), "MmiTally(satisfies=1, saturates=2, fails=4)"),
    "StarPartition": (lambda: StarPartition(1, 2, 4, 8), "StarPartition(c=1, i=2, j=4, k=8)"),
    "BlockSpaces": (
        lambda: BlockSpaces(frozenset({0}), frozenset({0, 1}), frozenset({0})),
        "BlockSpaces(w_i=frozenset({0}), w_j=frozenset({0, 1}), w_k=frozenset({0}))",
    ),
    "StarClassification": (
        lambda: StarClassification(False, True, 2, MmiOutcome.SATURATES, MmiOutcome.SATURATES),
        "StarClassification(nontrivial_intersection=False, distributive=True, case=2, "
        "predicted=<MmiOutcome.SATURATES: 'Saturates'>, "
        "outcome=<MmiOutcome.SATURATES: 'Saturates'>)",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    make, text = VALUES[name]
    value = make()
    fields = type(value).__match_args__
    assert type(value).__name__ == name
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None
    other = make()
    assert other is not value and other == value
    # the hash of the field tuple, as a frozen dataclass had: set and dict order hold
    assert hash(other) == hash(value) == hash(tuple(getattr(value, f) for f in fields))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BitMatrix((4,), 2), "row has bits beyond column count"),
        (lambda: Subspace(3, BitMatrix((), 2)), "basis width must equal ambient dimension"),
        (lambda: Graph(2, (2, 0)), "adjacency not symmetric"),
        (lambda: Tableau(1, BitMatrix((0,), 1), BitMatrix((0,), 1)), "generators are not independent"),
        (lambda: EntropyVector(2, (1, 0, 0)), "pure state: S_A must equal S_complement"),
        (lambda: MmiInstance(1, 1, 2), "subsystems must be pairwise disjoint"),
        (lambda: StarPartition(1, 1, 2, 4), "parts must be disjoint"),
    ],
    ids=["BitMatrix", "Subspace", "Graph", "Tableau", "EntropyVector", "MmiInstance", "StarPartition"],
)
def test_value_type_validation(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


_PATH4 = Graph(4, (2, 5, 10, 4))  # 1-2-3-4


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: census.CensusRow(1, 6, 5, 0, 0, 1, 1, 0), ValueError,
         "state buckets must sum to total_states"),
        (lambda: census.CensusRow(1, 7, 7, 0, 0, 1, 1, 0), ValueError,
         "total_states disagrees with the group-count formula"),
        (lambda: EntropyVector(2, (0, 0)), ValueError,
         "entropy vector needs one value per nonempty mask"),
        (lambda: MmiInstance(0, 1, 2), ValueError, "subsystems must be nonempty"),
        (lambda: entropy.entropy_vector("B?"), TypeError, "unsupported source str"),
        (lambda: BitMatrix((), -1), ValueError, "negative column count"),
        (lambda: graphs.check_census_size(3, "states"), ValueError, "unknown source 'states'"),
        (lambda: Graph(0, ()), ValueError, "graph needs at least one vertex"),
        (lambda: Graph(2, (0,)), ValueError, "adjacency row count must equal n"),
        (lambda: Graph(1, (2,)), ValueError, "adjacency bits beyond vertex range"),
        (lambda: graphs.local_complement(_PATH4, 5), IndexError, "vertex 5 out of range"),
        (lambda: graphs.submatrix(_PATH4, 16), ValueError, "mask outside vertex range"),
        (lambda: graphs.entropy(_PATH4, 0), ValueError, "empty subsystem"),
        (lambda: star.block_spaces(_PATH4, StarPartition(1, 2, 4, 8)), ValueError,
         "partition is not a generalized star"),
        (lambda: Tableau(2, BitMatrix((1,), 2), BitMatrix((2,), 2)), ValueError,
         "x and z must be n×n"),
        (lambda: tableau.project(zero_state(2), 4), ValueError, "mask outside qubit range"),
    ],
    ids=[
        "CensusRow-buckets", "CensusRow-total", "EntropyVector-length", "MmiInstance-empty",
        "entropy_vector-source", "BitMatrix-cols", "check_census_size-source", "Graph-empty",
        "Graph-rows", "Graph-bits", "local_complement-vertex", "submatrix-mask",
        "entropy-empty", "block_spaces-star", "Tableau-shape", "project-mask",
    ],
)
def test_input_checks(make, error, message):
    """Each input check that no CLI path reaches, with its type and message."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_value_type_construction_normalizes():
    inst = MmiInstance(4, 1, 2)
    assert (inst.i, inst.j, inst.k) == (1, 2, 4)
    assert Subspace(3) == Subspace(3, BitMatrix((0, 0), 3))
    assert Subspace(3).dim == 0 and Subspace(3).basis == BitMatrix((), 3)
    assert Subspace(2, BitMatrix((3, 1), 2)).basis.rows == (1, 2)  # reduced to RREF
