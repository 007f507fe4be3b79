"""The CLI's exit-code contract under arbitrary input: every run of
`cli.main` on a malformed file, partition, gate script or census ends with
exit code 0, 2 or 3, and no exception escapes it.  Examples are drawn
deterministically (`derandomize=True`), so every run checks the same inputs."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stabmmi import cli
from stabmmi.graphs import from_edges, to_json

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# ASCII and a few characters that str methods treat specially: a fixed
# alphabet also spares hypothesis building its Unicode tables (~2 s)
ALPHABET = "".join(map(chr, range(128))) + "é∞١𝟙ß\u2028\ufeff\udcff"
text = st.text(alphabet=ALPHABET, max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
    max_leaves=16,
)


def shaped(required=(), optional=()):
    """JSON objects with the keys the CLI reads, so that most examples get
    past the first lookup."""
    return st.fixed_dictionaries(
        {k: json_values for k in required}, optional={k: json_values for k in optional}
    )


record = shaped(["class_id", "canonical_vector", "satisfies", "saturates", "fails",
                 "state_count"], ["representative_graph6"])
# row strings for a JSON tableau, some of them empty or holding a newline
tableau_rows = st.lists(st.text(alphabet="01\n ", max_size=9), max_size=4)
source_json = (
    st.fixed_dictionaries(
        {}, optional={"n": json_values, "edges": json_values, "tableau": tableau_rows | json_values}
    )
    | json_values
)
partition_json = shaped(optional="CIJK") | json_values
census_json = (
    st.fixed_dictionaries({"classes": st.lists(record | json_values, max_size=3)},
                          optional={"n": json_values})
    | json_values
)
graph6_text = st.text(alphabet=[chr(c) for c in range(60, 128)], max_size=8)
tableau_text = st.lists(st.text(alphabet="01 ", max_size=10), max_size=6).map("\n".join)
gate_line = st.tuples(
    st.sampled_from(["H", "S", "CNOT", "CZ", "cz", "X", "#", ""]),
    st.lists(st.integers(-2, 10).map(str) | text, max_size=3),
).map(lambda t: " ".join([t[0], *t[1]]))
gate_script = st.lists(gate_line, max_size=8).map("\n".join)


def exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def write(path, data):
    """Write text or bytes; a lone surrogate is the byte it escapes, as in
    argv and file names that are not UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogateescape")
    path.write_bytes(data)
    return str(path)


@FUZZ
@given(
    command=st.sampled_from(["entropy", "mmi", "classify"]),
    suffix=st.sampled_from(["g6", "json", "txt"]),
    data=st.binary(max_size=64) | source_json.map(json.dumps) | graph6_text | tableau_text,
)
def test_source_inputs(tmp_path, command, suffix, data):
    assert exit_code([command, write(tmp_path / f"in.{suffix}", data)]) in (0, 2, 3)


@FUZZ
@given(rows=tableau_rows)
def test_json_tableau_rows(tmp_path, rows):
    """A JSON tableau runs only if each list element is one row of 2n binary
    characters, n the number of elements."""
    code = exit_code(["entropy", write(tmp_path / "t.json", json.dumps({"tableau": rows}))])
    if not rows or any(len(r) != 2 * len(rows) or set(r) - {"0", "1"} for r in rows):
        assert code == 2


@FUZZ
@given(partition=partition_json.map(json.dumps) | text)
def test_partitions(tmp_path, partition):
    graph = write(tmp_path / "g.json", to_json(from_edges(5, [(1, v) for v in range(2, 6)])))
    assert exit_code(["classify", graph, f"--partition={partition}"]) in (0, 2, 3)


@FUZZ
@given(
    script=gate_script | st.binary(max_size=32),
    n=st.none() | st.integers(-1, 9),
)
def test_gate_scripts(tmp_path, script, n):
    argv = ["circuit", write(tmp_path / "c.txt", script)]
    assert exit_code(argv + ([] if n is None else ["-n", str(n)])) in (0, 2, 3)


@FUZZ
@given(census=census_json.map(json.dumps) | st.binary(max_size=64))
def test_census_reports(tmp_path, census):
    argv = ["report", write(tmp_path / "census.json", census), "-d", str(tmp_path / "out")]
    assert exit_code(argv) in (0, 2, 3)
