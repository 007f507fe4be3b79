import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stabmmi import census, cli, star
from stabmmi import entropy as entmod
from stabmmi import tableau as tabmod
from stabmmi.graphs import CapExceeded, from_edges, to_graph6, to_json

from oracles import brute_canonical


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def write_star4(tmp_path, name="star.json"):
    path = tmp_path / name
    path.write_text(to_json(from_edges(4, [(1, 2), (1, 3), (1, 4)])))
    return str(path)


def test_entropy_star(run, tmp_path):
    code, out, _ = run("entropy", write_star4(tmp_path))
    assert code == 0
    plain, canon = (json.loads(line) for line in out.strip().splitlines())
    assert plain["n"] == 4
    assert all(v == 1 for k, v in plain["entropies"].items() if k != "15")
    assert plain["entropies"]["15"] == 0
    assert canon["canonical"] is True


def test_entropy_empty_graph(run, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"n": 3, "edges": []}))
    code, out, _ = run("entropy", str(p))
    assert code == 0
    plain = json.loads(out.splitlines()[0])
    assert set(plain["entropies"].values()) == {0}


def test_entropy_deterministic(run, tmp_path):
    path = write_star4(tmp_path)
    out1 = run("entropy", path)[1]
    out2 = run("entropy", path)[1]
    assert out1 == out2


def test_entropy_g6_input(run, tmp_path):
    p = tmp_path / "star.g6"
    p.write_text(to_graph6(from_edges(4, [(1, 2), (1, 3), (1, 4)])) + "\n")
    assert run("entropy", str(p))[0] == 0


def test_mmi_ghz4_table(run, tmp_path):
    code, out, _ = run("mmi", write_star4(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance-I,instance-J,instance-K,outcome"
    rows = [ln for ln in lines[1:] if not ln.startswith("tally")]
    assert len(rows) == 10
    assert sum(ln.endswith("Fails") for ln in rows) == 4
    assert sum(ln.endswith("Saturates") for ln in rows) == 6
    assert lines[-1] == "tally,0,6,4"


def test_mmi_skip_full_union(run, tmp_path):
    p = tmp_path / "empty3.json"
    p.write_text(json.dumps({"n": 3, "edges": []}))
    code, out, _ = run("mmi", str(p))
    rows = [ln for ln in out.strip().splitlines()[1:] if not ln.startswith("tally")]
    assert len(rows) == 1 and rows[0].endswith("Saturates")
    code, out, _ = run("mmi", str(p), "--skip-full-union")
    rows = [ln for ln in out.strip().splitlines()[1:] if not ln.startswith("tally")]
    assert rows == []


@pytest.mark.parametrize("n", [1, 2])
def test_mmi_fewer_than_three_qubits(run, tmp_path, n):
    p = tmp_path / "small.json"
    p.write_text(json.dumps({"n": n, "edges": [[1, 2]] if n == 2 else []}))
    code, out, err = run("mmi", str(p))
    assert code == 0, err
    assert out == "instance-I,instance-J,instance-K,outcome\ntally,0,0,0\n"


def test_circuit_ghz_round_trip(run, tmp_path):
    script = tmp_path / "ghz.txt"
    script.write_text(
        "H 3\nCNOT 3 1\nCNOT 3 2\nCNOT 3 4\nCNOT 3 4\nCNOT 3 4\n"
    )
    code, out, _ = run("circuit", str(script))
    assert code == 0
    # line 4 entangles the 4th qubit (4 instances flip to Fails), line 5
    # undoes it, line 6 redoes it
    assert out.count("Saturates -> Fails") == 8
    assert out.count("Fails -> Saturates") == 4


def test_circuit_involution_reports_no_diff(run, tmp_path):
    script = tmp_path / "hh.txt"
    script.write_text("H 1\nH 1\n")
    code, out, _ = run("circuit", str(script), "-n", "3")
    assert code == 0
    assert "->" not in out


def test_circuit_matches_rank_and_mmi_oracles(run, tmp_path):
    """Rank lines and MMI diffs equal rank_vector and evaluate_mmi after
    every gate of a random script."""
    rng = random.Random(97)
    n = 5
    gates = []
    for _ in range(80):
        name = rng.choice(("H", "S", "CNOT", "CZ"))
        qubits = rng.sample(range(1, n + 1), 1 if name in ("H", "S") else 2)
        gates.append((name, qubits))
    script = tmp_path / "random.txt"
    script.write_text("".join(" ".join([name, *map(str, q)]) + "\n" for name, q in gates))

    def ranks(t):
        rv = tabmod.rank_vector(t)
        return " ".join(f"{cli._render_subset(m)}={rv[m]}" for m in range(1, 1 << n))

    def outcomes(t):
        ev = entmod.entropy_vector(t)
        return [entmod.evaluate_mmi(ev, inst) for inst in entmod.mmi_instances(n)]

    t = tabmod.zero_state(n)
    before = outcomes(t)
    expected = ["initial ranks: " + ranks(t)]
    apply = {
        "H": tabmod.apply_h, "S": tabmod.apply_s, "CNOT": tabmod.apply_cnot, "CZ": tabmod.apply_cz
    }
    for name, qubits in gates:
        t = apply[name](t, *qubits)
        expected.append(f"after {name} {' '.join(map(str, qubits))}: " + ranks(t))
        after = outcomes(t)
        for inst, old, new in zip(entmod.mmi_instances(n), before, after):
            if old != new:
                expected.append(
                    f"  MMI({cli._render_subset(inst.i)};{cli._render_subset(inst.j)};"
                    f"{cli._render_subset(inst.k)}): {old.value} -> {new.value}"
                )
        before = after
    code, out, _ = run("circuit", str(script))
    assert code == 0
    assert "->" in out
    assert out.splitlines() == expected


def test_circuit_malformed_line(run, tmp_path):
    script = tmp_path / "bad.txt"
    script.write_text("H 1\nWOBBLE 2\n")
    code, _, err = run("circuit", str(script))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "script, n",
    [
        ("H 1\nCNOT 2 2\nH 2\n", None),
        ("H 1\nCNOT 2 2\n", "3"),
        ("H 1\nH 3\n", "2"),
        ("H 1\nWOBBLE 2\n", "2"),
        ("H 1\nCZ 1\n", None),
    ],
    ids=["cnot-a-a", "cnot-a-a-n", "out-of-range-n", "bad-name-n", "bad-arity"],
)
def test_circuit_error_writes_nothing_to_stdout(run, tmp_path, script, n):
    """A gate error after valid gates exits 2 before any output."""
    path = tmp_path / "bad.txt"
    path.write_text(script)
    code, out, err = run("circuit", str(path), *(["-n", n] if n else []))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 2:")


def test_classify_explicit_partition(run, tmp_path):
    path = write_star4(tmp_path)
    code, out, _ = run(
        "classify", path, "--partition", '{"C":[1],"I":[2],"J":[3],"K":[4]}'
    )
    assert code == 0
    record = json.loads(out)
    assert record["case"] == 3
    assert record["outcome"] == "Fails"


def test_classify_spans_each_block_once(run, tmp_path, monkeypatch):
    """One classify call gives the case and the outcome: the block column
    spaces are spanned once, not once per answer."""
    calls = []

    def counted(g, p):
        calls.append(p)
        return block_spaces(g, p)

    block_spaces = star.block_spaces
    monkeypatch.setattr(star, "block_spaces", counted)
    partition = '{"C":[1],"I":[2],"J":[3],"K":[4]}'
    code, out, _ = run("classify", write_star4(tmp_path), "--partition", partition)
    assert (code, json.loads(out)["outcome"]) == (0, "Fails")
    assert len(calls) == 1


def test_classify_auto_no_partition(run, tmp_path):
    p = tmp_path / "path5.json"
    p.write_text(json.dumps({"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}))
    code, out, _ = run("classify", str(p))
    assert code == 0
    assert json.loads(out) == {"result": "no qualifying partition"}


def test_classify_rejects_non_star_partition(run, tmp_path):
    p = tmp_path / "tri.json"
    p.write_text(json.dumps({"n": 4, "edges": [[2, 3], [3, 4], [2, 4]]}))
    code, _, err = run(
        "classify", str(p), "--partition", '{"C":[1],"I":[2],"J":[3],"K":[4]}'
    )
    assert code == 2
    assert "not a generalized star" in err


def test_census_table14(run, tmp_path):
    out_file = tmp_path / "t14.csv"
    code, _, _ = run("census", "--table14", "4", "-o", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[1] == "4,36720,18576,15552,2592,18,6,1"


def test_census_classes(run, tmp_path):
    code, out, _ = run("census", "--classes", "4", "--source", "groups")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header + 6 classes
    assert lines[0].startswith("class_id,")


def test_census_scans(run):
    code, out, _ = run("census", "--scan-four-star", "4")
    assert code == 0
    assert json.loads(out)["counterexamples"] == []
    code, out, _ = run("census", "--scan-intersection", "4")
    assert code == 0
    assert json.loads(out)["counterexamples"] == []


def test_census_usage_error(run):
    code, _, err = run("census")
    assert code == 1


def test_census_modes_exclusive(run):
    code, out, err = run("census", "--table14", "3", "--scan-intersection", "4")
    assert code == 1
    assert out == ""
    assert "not allowed with" in err


def test_census_cap_exceeded(run):
    code, _, err = run("census", "--table14", "7")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [["--table14", "0"], ["--table14", "-1"], ["--classes", "0"]],
    ids=["table14-0", "table14-negative", "classes-0"],
)
def test_census_size_below_one(run, argv):
    code, out, err = run("census", *argv)
    assert code == 3
    assert out == ""
    assert "cap exceeded" in err


def write_ring(tmp_path, n):
    path = tmp_path / f"ring{n}.g6"
    path.write_text(to_graph6(from_edges(n, [(v, v % n + 1) for v in range(1, n + 1)])) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["entropy"], ["mmi"], ["classify"], ["circuit", "-n", "20"]],
    ids=["entropy", "mmi", "classify", "circuit-n"],
)
def test_per_state_cap(run, tmp_path, argv):
    """A 20-qubit input exits 3 up front instead of running for hours: an
    alarm stops the command after 5 s, so a lost cap check fails the test
    instead of hanging it."""
    script = tmp_path / "h.txt"
    script.write_text("H 1\n")
    target = str(script) if argv[0] == "circuit" else write_ring(tmp_path, 20)

    def timeout(signum, frame):
        raise TimeoutError("no exit within 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        code, out, err = run(argv[0], target, *argv[1:])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3
    assert out == ""
    assert err.startswith("cap exceeded:")


@pytest.mark.parametrize(
    "error", [ValueError("cap budget"), AssertionError("cap"), RuntimeError("budget")]
)
def test_untyped_errors_are_internal(run, tmp_path, monkeypatch, error):
    """Only CapExceeded exits 3, whatever another error's message says."""

    def fail(source):
        raise error

    monkeypatch.setattr("stabmmi.entropy.entropy_vector", fail)
    code, _, err = run("entropy", write_star4(tmp_path))
    assert code == 4
    assert err.startswith("internal invariant violation:")


@pytest.mark.parametrize("n", ["3.5", '"3"', "true"], ids=["float", "string", "bool"])
def test_json_n_must_be_an_integer(run, tmp_path, n):
    """A float, string or boolean "n" ran as int(n) qubits and exited 0."""
    path = tmp_path / "g.json"
    path.write_text(f'{{"n": {n}, "edges": []}}')
    code, out, err = run("entropy", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "graph, partition",
    [
        ({"n": 4, "edges": [[True, 2], [1, 3], [1, 4]]}, None),
        ({"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]}, {"C": [True], "I": [2], "J": [3], "K": [4]}),
    ],
    ids=["edge", "partition"],
)
def test_json_vertex_ids_must_be_integers(run, tmp_path, graph, partition):
    """A boolean vertex id ran as vertex 1 and exited 0."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    extra = [] if partition is None else ["--partition", json.dumps(partition)]
    code, out, err = run("classify", str(path), *extra)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "tableau",
    [
        "100010001",
        {"1001": 0, "0110": 0},
        ["1000\n0100"],
        ["1000", "", "0100"],
        [" 1000 ", "0100"],
    ],
    ids=["string", "object", "newline-row", "empty-row", "padded-row"],
)
def test_json_tableau_must_be_a_list_of_strings(run, tmp_path, tableau):
    """A string was split into one-character rows (9 qubits, exit 3), and an
    object's keys were read as rows (exit 0).  Each list element is one row
    of 2n binary characters: the rows were joined with newlines and split
    again, so the last three ran as a 2-qubit tableau and exited 0."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"tableau": tableau}))
    code, out, err = run("entropy", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "partition",
    [{"C": [1], "I": [2], "J": [3], "K": [4, 4]}, {"C": [1], "I": [2], "J": [3], "K": [4], "X": [9]}],
    ids=["repeated-vertex", "unknown-key"],
)
def test_classify_rejects_malformed_partition(run, tmp_path, partition):
    """A vertex repeated inside one part, and an unknown key, exited 0."""
    code, out, err = run("classify", write_star4(tmp_path), "--partition", json.dumps(partition))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: bad partition")


@pytest.mark.parametrize("name", ["t.txt", "t.json"])
def test_tableau_size_is_checked_before_it_is_parsed(run, tmp_path, monkeypatch, name):
    """Parsing and checking a tableau costs O(n²) or more: a 9-row tableau
    exits 3 before it is parsed."""
    lines = [format(1 << (17 - q), "018b") for q in range(9)]  # X on each qubit
    path = tmp_path / name
    path.write_text(json.dumps({"tableau": lines}) if name.endswith("json") else "\n".join(lines))

    def fail(rows):
        raise AssertionError("parsed before the size check")

    monkeypatch.setattr(tabmod, "parse_tableau", fail)
    code, out, err = run("entropy", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded:")


@pytest.mark.parametrize("command", ["entropy", "mmi", "classify"])
def test_declared_size_is_checked_before_the_graph_is_built(run, tmp_path, command):
    """Validating a 10^5-vertex graph would take minutes: the declared n
    exits 3 first."""
    path = tmp_path / "huge.json"
    path.write_text('{"n": 100000, "edges": []}')
    start = time.perf_counter()
    code, out, err = run(command, str(path))
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded:")


def test_load_source_caps_a_graph6_graph(tmp_path):
    """The loader, not each command, checks the qubit cap of every input."""
    with pytest.raises(CapExceeded, match="got 9$"):
        cli.load_source(write_ring(tmp_path, 9))


def test_load_source_decodes_a_json_graph_once(tmp_path, monkeypatch):
    decode, calls = json.loads, []

    def loads(text, *args, **kwargs):
        calls.append(text)
        return decode(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    assert cli.load_source(write_star4(tmp_path)) == from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert len(calls) == 1


def test_per_state_cap_from_gate_indices(run, tmp_path):
    script = tmp_path / "wide.txt"
    script.write_text("H 1\nCNOT 1 20\n")
    code, out, _ = run("circuit", str(script))
    assert (code, out) == (3, "")
    assert run("circuit", str(script), "-n", "0")[0] == 3


@pytest.mark.parametrize("command", ["entropy", "mmi", "classify", "circuit"])
def test_per_state_cap_admits_eight(run, tmp_path, command):
    if command == "circuit":
        script = tmp_path / "c8.txt"
        script.write_text("H 1\nCNOT 1 8\n")
        assert run("circuit", str(script))[0] == 0
    else:
        assert run(command, write_ring(tmp_path, 8))[0] == 0


@pytest.mark.parametrize("n", [4, 5])
def test_class_representative_is_first_member_graph(run, n):
    """Each class's representative is the graph of the first vector, in
    census order, whose canonical form is the class's vector."""
    code, out, _ = run("census", "--classes", str(n), "--source", "graphs", "--json")
    assert code == 0
    result = census.vector_census(n, source="graphs")
    canon_of = {vals: brute_canonical(n, vals) for vals in result.representatives}
    for rec in json.loads(out)["classes"]:
        canon = tuple(rec["canonical_vector"])
        first = next(
            graph
            for vals, graph in result.representatives.items()
            if canon_of[vals] == canon
        )
        assert rec["representative_graph6"] == to_graph6(first)


@pytest.mark.parametrize("module", ["stabmmi", "stabmmi.cli"])
def test_module_entry_points(module):
    src = Path(census.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: stabmmi")
    assert proc.stderr == ""


_NO_NUMPY = ("numpy", "multiprocessing")
_NO_CENSUS_OR_STAR = ("stabmmi.census", "stabmmi.star", "multiprocessing")
_NO_POOL = ("multiprocessing",)  # every census runs in one process


@pytest.mark.parametrize(
    "argv,absent,code",
    [
        (["classify", "{graph}"], _NO_NUMPY, 0),
        (["classify", "{graph}", "--partition", '{{"C":[1],"I":[2],"J":[3],"K":[4]}}'], _NO_NUMPY,
         0),
        (["report", "{census}", "-d", "{html}"], _NO_NUMPY, 0),
        (["--help"], _NO_NUMPY, 0),
        (["entropy", "{graph}"], _NO_NUMPY + _NO_CENSUS_OR_STAR, 0),
        (["entropy", "{tableau}"], _NO_NUMPY + _NO_CENSUS_OR_STAR, 0),
        (["mmi", "{graph}"], _NO_NUMPY + _NO_CENSUS_OR_STAR, 0),
        (["circuit", "{script}"], _NO_NUMPY + _NO_CENSUS_OR_STAR, 0),
        (["census", "--table14", "0"], _NO_NUMPY + _NO_CENSUS_OR_STAR, 3),
        (["census", "--classes", "8", "--source", "graphs"], _NO_NUMPY + _NO_CENSUS_OR_STAR, 3),
        (["census", "--table14", "3"], _NO_POOL, 0),
        (["census", "--classes", "4", "--source", "graphs"], _NO_POOL, 0),
        (["census", "--scan-four-star", "4"], _NO_POOL, 0),
        (["census", "--scan-intersection", "4"], _NO_POOL, 0),
    ],
    ids=["classify", "classify-partition", "report", "help", "entropy", "entropy-tableau", "mmi",
         "circuit",
         "census-table14-cap", "census-classes-cap", "census-table14", "census-classes",
         "census-four-star", "census-intersection"],
)
def test_subcommands_import_only_what_they_run(tmp_path, argv, absent, code):
    """A fresh process that runs one subcommand has not loaded the modules
    that the subcommand does not use; a census size beyond its cap exits
    before numpy loads."""
    census_json = tmp_path / "census.json"
    census_json.write_text(json.dumps({"n": 2, "classes": [_RECORD]}))
    script = tmp_path / "ghz.txt"
    script.write_text("H 1\nCNOT 1 2\n")
    tableau = tmp_path / "bell.txt"
    tableau.write_text("1100\n0011\n")
    paths = {"graph": write_star4(tmp_path), "census": census_json, "html": tmp_path / "html",
             "script": script, "tableau": tableau}
    probe = (
        "import sys\nfrom stabmmi import cli\n"
        "try:\n    sys.exit(cli.main(sys.argv[1:]))\n"
        "finally:\n    print(*sorted(sys.modules))"
    )
    src = Path(census.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *(a.format(**paths) for a in argv)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "stabmmi.cli" in loaded
    assert loaded.isdisjoint(absent), sorted(loaded & set(absent))


def test_report_pages_and_links(run, tmp_path):
    census_json = tmp_path / "c4.json"
    code, _, _ = run(
        "census", "--classes", "4", "--source", "graphs", "--json",
        "-o", str(census_json),
    )
    assert code == 0
    outdir = tmp_path / "html"
    code, out, _ = run("report", str(census_json), "-d", str(outdir))
    assert code == 0
    index = (outdir / "index.html").read_text()
    pages = sorted(p.name for p in outdir.glob("class-*.html"))
    assert len(pages) == 6
    for page in pages:
        assert f'href="{page}"' in index
        body = (outdir / page).read_text()
        assert 'href="index.html"' in body


def test_parse_error_exit_code(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("entropy", str(bad))[0] == 2
    missing = tmp_path / "missing.g6"
    assert run("entropy", str(missing))[0] == 2


def test_unknown_extension_needs_format(run, tmp_path):
    odd = tmp_path / "graph.data"
    odd.write_text(to_json(from_edges(3, [(1, 2)])))
    assert run("entropy", str(odd))[0] == 1
    assert run("entropy", str(odd), "--format", "json")[0] == 0


@pytest.mark.parametrize(
    "command,name", [("entropy", "bad.g6"), ("circuit", "bad.txt"), ("report", "bad.json")]
)
def test_non_utf8_input_is_a_parse_error(run, tmp_path, command, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe")
    extra = ["-d", str(tmp_path / "html")] if command == "report" else []
    code, out, err = run(command, str(path), *extra)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


DEEP = "[" * 10**5 + "]" * 10**5


@pytest.mark.parametrize(
    "command,name,text",
    [
        ("entropy", "deep.json", DEEP),
        ("classify", "star.json", DEEP),
        ("report", "deep.json", DEEP),
        ("entropy", "inf.json", '{"n": Infinity, "edges": []}'),
    ],
    ids=["source-nesting", "partition-nesting", "census-nesting", "infinite-n"],
)
def test_json_beyond_the_decoder_is_a_parse_error(run, tmp_path, command, name, text):
    """JSON nested too deeply to decode was exit 4, and an infinite "n" an
    OverflowError traceback."""
    if command == "classify":
        extra = ["--partition", text]
        path = write_star4(tmp_path)
    else:
        extra = ["-d", str(tmp_path / "html")] if command == "report" else []
        path = tmp_path / name
        path.write_text(text)
    code, out, err = run(command, str(path), *extra)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


_RECORD = {
    "class_id": 1, "canonical_vector": [1, 1, 0], "state_count": 3, "member_vectors": 1,
    "satisfies": 0, "saturates": 0, "fails": 0, "representative_graph6": "Bw",
}


@pytest.mark.parametrize(
    "data",
    [
        [_RECORD],
        {"n": 2, "classes": 5},
        {"n": 2, "classes": [{k: v for k, v in _RECORD.items() if k != "class_id"}]},
        {"n": 2, "classes": [{**_RECORD, "representative_graph6": "~~"}]},
        {"n": 2, "classes": [{**_RECORD, "class_id": "../1"}]},
        {"n": 2, "classes": [{**_RECORD, "class_id": "1\0"}]},
        {"n": 2, "classes": [{**_RECORD, "canonical_vector": "\udcff"}]},
        {"n": "\udcff", "classes": [_RECORD]},
        {"n": 4, "edges": [[1, 2]]},
        {"n": 2, "classes": [{**_RECORD, "class_id": True}]},
        {"n": 2, "classes": [_RECORD, {**_RECORD, "canonical_vector": [1, 1, 1]}]},
    ],
    ids=["top-level-list", "classes-not-list", "record-missing-key", "bad-graph6",
         "class-id-path", "class-id-nul", "surrogate-in-page", "surrogate-in-index",
         "no-classes-key", "class-id-bool", "class-id-duplicate"],
)
def test_report_malformed_census_is_a_parse_error(run, tmp_path, data):
    path = tmp_path / "census.json"
    path.write_text(json.dumps(data))
    outdir = tmp_path / "html"
    code, out, err = run("report", str(path), "-d", str(outdir))
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")
    assert not outdir.exists()  # nothing is written before the input checks out


@pytest.mark.parametrize(
    "argv",
    [["--budget", "0"], ["--budget", "-1"], ["--budget", "x"], ["--budget", "1.5"],
     ["--budget", ""]],
)
def test_census_flag_ranges(run, argv):
    """--budget is not an option: the four-star scan tests whole orbits, so
    any value of it, in range or not, is a usage error."""
    for flag in (argv, ["--budget", "1"]):
        code, out, err = run("census", "--scan-four-star", "3", *flag)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and "--budget" in err


@pytest.mark.parametrize(
    "mode, flag",
    [
        (["--table14", "3"], ["--source", "graphs"]),
        (["--table14", "3"], ["--json"]),
        (["--scan-four-star", "3"], ["--json"]),
        (["--scan-intersection", "4"], ["--source", "groups"]),
        (["--scan-intersection", "4"], ["--json"]),
        (["--scan-four-star", "3"], ["--source", "graphs"]),
    ],
)
def test_census_rejects_flags_the_mode_ignores(run, mode, flag, tmp_path):
    """--source and --json belong to --classes; elsewhere each is a usage
    error before any work, output file included."""
    out_file = tmp_path / "out.txt"
    code, out, err = run("census", *mode, *flag, "-o", str(out_file))
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and flag[0] in err
    assert not out_file.exists()


@pytest.mark.parametrize("value", ["abc", "0", "100000"])
def test_census_jobs_environment_is_checked(run, monkeypatch, value):
    """Every census runs in one process: STABMMI_JOBS, whatever its value,
    changes nothing, and --jobs is not an option."""
    monkeypatch.setenv("STABMMI_JOBS", value)
    code, out, err = run("census", "--table14", "3")
    assert (code, err) == (0, "") and out.endswith("\n3,1080,1080,0,0,5,3,0\n")
    code, out, err = run("census", "--table14", "3", "--jobs", "2")
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "--jobs" in err


def test_census_unwritable_output_is_a_usage_error(run, tmp_path):
    code, out, err = run("census", "--table14", "3", "-o", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")


def test_report_unwritable_output_dir_is_a_usage_error(run, tmp_path):
    census_json = tmp_path / "c3.json"
    assert run("census", "--classes", "3", "--json", "-o", str(census_json))[0] == 0
    code, out, err = run("report", str(census_json), "-d", str(census_json))
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")
