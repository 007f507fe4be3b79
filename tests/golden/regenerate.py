"""Golden outputs of the `stabmmi` CLI: the corpus, the cases, and the runner.

Each case is one argv.  `record` runs it in-process through `cli.main`, in a
working directory that holds the corpus as `inputs/`, and returns its exit
code, the sha256 of its stdout and stderr (with the text itself when it is
short, so that a failure shows a diff) and the sha256 of every file it
wrote.  The at-cap census runs (`AT_CAP`) run instead in a subprocess that
is killed after a set number of seconds, so that a slowdown fails the case
instead of hanging it.  The library-call entries (`CENSUS_NS`) pin the
graph census listings, representatives included, which the CLI prints only
in part.  `tests/test_golden.py` compares each case and call with its
`manifest.json` entry.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py           # manifest.json
    PYTHONPATH=src python tests/golden/regenerate.py --corpus  # inputs/, then manifest.json

Rewrite the manifest only when an output changes on purpose, and name each
changed entry in the change's log; never to make a failing run pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from stabmmi import census, cli
from stabmmi import tableau as tabmod
from stabmmi.graphs import from_edges, to_graph6, to_json

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"
TEXT_LIMIT = 4096  # streams up to this many characters are stored as text

# graphs with one generalized-star partition each, C, I, J, K 1-based:
# the four-qubit star (case 3) and one six-vertex graph per case 1, 2, 3
STARS = {
    "star4": (4, [(1, 2), (1, 3), (1, 4)], ([1], [2], [3], [4])),
    "case1": (6, [(1, 4), (2, 5), (3, 4), (3, 5), (5, 6)], ([4, 5], [1], [3], [2, 6])),
    "case2": (6, [(1, 5), (2, 3)], ([3], [6], [2, 4], [1, 5])),
    "case3": (6, [(1, 4), (1, 6), (2, 6), (3, 4), (4, 5)], ([4, 6], [3], [5], [1, 2])),
}

# every census mode at its cap, with the seconds its subprocess may take
# (each ends in under 3 s on 2 CPUs); `--scan-intersection 7` takes minutes
AT_CAP = {
    ("census", "--table14", "6"): 30,
    ("census", "--classes", "6"): 30,
    ("census", "--classes", "7", "--source", "graphs"): 30,
    ("census", "--scan-four-star", "7"): 30,
}

# n of each `census.vector_census(n, "graphs")` library-call entry
CENSUS_NS = (6, 7)

# JSON graphs whose "n" is not a qubit count the per-state commands take
BAD_ORDERS = {"float": "3.5", "string": '"3"', "bool": "true", "zero": "0", "nine": "9"}

GATE_SCRIPTS = {
    "gates-ghz.txt": "# GHZ on four qubits\nH 1\nCNOT 1 2\nCNOT 2 3\nCNOT 3 4\n",
    "gates-mixed.txt": "h 1\nS 1\nCZ 1 3\n\ncnot 3 5\nH 5\nS 2\nCZ 2 4\nH 2\n",
}


def _tableau_rows(t) -> list[str]:
    """One row per generator: the X bits of qubits 1..n, then the Z bits."""
    return [
        "".join(str((row >> q) & 1) for row in (xr, zr) for q in range(t.n))
        for xr, zr in zip(t.x.rows, t.z.rows)
    ]


def build_corpus() -> None:
    """Write every input file from a fixed seed."""
    rng = random.Random(2025)
    INPUTS.mkdir(exist_ok=True)
    files = dict(GATE_SCRIPTS)
    for n in range(1, 9):
        pairs = [(v, w) for v in range(1, n + 1) for w in range(v + 1, n + 1)]
        g = from_edges(n, [e for e in pairs if rng.random() < 0.5])
        files[f"g{n}.g6"] = to_graph6(g) + "\n"
        files[f"g{n}.json"] = to_json(g) + "\n"
        t = tabmod.zero_state(n)
        for _ in range(4 * n):
            gate = rng.choice("HSCZ" if n > 1 else "HS")
            if gate in "HS":
                t = (tabmod.apply_h if gate == "H" else tabmod.apply_s)(t, rng.randint(1, n))
            else:
                a, b = rng.sample(range(1, n + 1), 2)
                t = (tabmod.apply_cnot if gate == "C" else tabmod.apply_cz)(t, a, b)
        rows = _tableau_rows(t)
        files[f"t{n}.json"] = json.dumps({"tableau": rows}) + "\n"
        files[f"t{n}.txt"] = "\n".join(rows) + "\n"
    for name, (n, edges, _) in STARS.items():
        files[f"{name}.json"] = to_json(from_edges(n, edges)) + "\n"
    for n in (8, 9):
        ring = from_edges(n, [(v, v % n + 1) for v in range(1, n + 1)])
        files[f"ring{n}.g6"] = to_graph6(ring) + "\n"
    files["star8.g6"] = to_graph6(from_edges(8, [(1, v) for v in range(2, 9)])) + "\n"
    files["t-padded.txt"] = "  1000  \n\n0100\t\n"
    for name, n in BAD_ORDERS.items():
        files[f"n-{name}.json"] = f'{{"n": {n}, "edges": []}}\n'
    files["n-missing.json"] = '{"edges": []}\n'
    # JSON rows are read one per element, as given: each of these exits 2
    for name, rows in (("newline", ["1000\n0100"]), ("empty", ["1000", "", "0100"]),
                       ("padded", [" 1000 ", "0100"])):
        files[f"t-{name}-row.json"] = json.dumps({"tableau": rows}) + "\n"
    # graph6 bodies that do not decode: a character below "?", and set
    # padding bits after the three edge bits of n = 3
    files["g6-bad-char.g6"] = "B!\n"
    files["g6-bad-padding.g6"] = "B~\n"
    for name, text in files.items():
        (INPUTS / name).write_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        census = record(["census", "--classes", "4", "--json", "-o", "classes4.json"], tmp)
        assert census["exit"] == 0, census
        (INPUTS / "classes4.json").write_bytes((Path(tmp) / "classes4.json").read_bytes())
    # malformed censuses for `report`, each of which exits 2: a repeated and
    # a string class_id, and a "\udcff" escape, which decodes to a lone
    # surrogate that UTF-8 cannot encode
    for name, key, value in (("repeated-id", "class_id", 1), ("string-id", "class_id", "2"),
                             ("surrogate", "canonical_vector", "\udcff")):
        data = json.loads((INPUTS / "classes4.json").read_text())
        data["classes"][1][key] = value
        (INPUTS / f"classes4-{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def cases() -> list[list[str]]:
    out = []
    for n in range(1, 9):
        for src in (f"g{n}.g6", f"g{n}.json", f"t{n}.json", f"t{n}.txt"):
            out += [["entropy", f"inputs/{src}"], ["mmi", f"inputs/{src}"],
                    ["mmi", f"inputs/{src}", "--skip-full-union"]]
        out.append(["classify", f"inputs/g{n}.g6"])
    for name, (_, _, parts) in STARS.items():
        partition = json.dumps(dict(zip("CIJK", parts)))
        out += [["classify", f"inputs/{name}.json"],
                ["classify", f"inputs/{name}.json", "--partition", partition]]
    out += [
        ["classify", "inputs/star4.json", "--partition", '{"C": [2], "I": [1], "J": [3], "K": [4]}'],
        ["classify", "inputs/star4.json", "--partition", '{"C": [1], "I": [2], "J": [3]}'],
        ["classify", "inputs/ring8.g6"],
        ["classify", "inputs/star8.g6"],
        ["classify", "inputs/t4.txt"],
        ["entropy", "inputs/ring9.g6"],
        ["entropy", "inputs/t-padded.txt"],
        ["entropy", "inputs/t-newline-row.json"],
        ["entropy", "inputs/t-empty-row.json"],
        ["entropy", "inputs/t-padded-row.json"],
        *(["entropy", f"inputs/n-{name}.json"] for name in [*BAD_ORDERS, "missing"]),
        ["circuit", "inputs/gates-ghz.txt"],
        ["circuit", "inputs/gates-mixed.txt", "-n", "6"],
        ["circuit", "inputs/gates-ghz.txt", "-n", "3"],
    ]
    for n in range(1, 6):
        out += [
            ["census", "--table14", str(n)],
            ["census", "--classes", str(n)],
            ["census", "--classes", str(n), "--source", "graphs"],
            ["census", "--scan-four-star", str(n)],
            ["census", "--scan-intersection", str(n)],
        ]
    out += [
        ["census", "--classes", "6", "--source", "graphs"],
        ["census", "--scan-four-star", "6"],
        ["census", "--scan-intersection", "6"],
        *map(list, AT_CAP),
        ["census", "--table14", "0"],
        ["census", "--classes", "5", "--json"],
        ["census", "--classes", "5", "--source", "graphs", "--json", "-o", "classes.json"],
        ["census", "--table14", "5", "-o", "table14.csv"],
        ["census", "--scan-four-star", "5", "-o", "four-star.json"],
        ["census", "--scan-intersection", "5", "-o", "intersection.json"],
        ["report", "inputs/classes4.json", "-d", "report"],
        ["entropy", "inputs/g6-bad-char.g6"],
        ["entropy", "inputs/g6-bad-padding.g6"],
        ["classify", "inputs/star4.json", "--partition", '{"C": [9], "I": [2], "J": [3], "K": [4]}'],
        # unwritable outputs exit 1: a missing directory, and an existing file as -d
        ["census", "--classes", "4", "--json", "-o", "missing/x.json"],
        ["report", "inputs/classes4.json", "-d", "inputs/g1.g6"],
        *(["report", f"inputs/classes4-{name}.json"] for name in ("repeated-id", "string-id", "surrogate")),
    ]
    return out


def _stream(name: str, text: str) -> dict:
    entry = {f"{name}_sha256": hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()}
    if len(text) <= TEXT_LIMIT:
        entry[name] = text
    return entry


def _run_in_process(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _run_subprocess(argv: list[str], workdir: Path, timeout: float) -> tuple[int, str, str]:
    """`python -m stabmmi argv`; subprocess.TimeoutExpired after `timeout` s."""
    src = Path(cli.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stabmmi", *argv], cwd=workdir, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, encoding="utf-8", errors="surrogateescape", timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def record(argv: list[str], workdir) -> dict:
    """Run `stabmmi argv` in workdir, with the corpus linked there as
    `inputs`; the outcome as a manifest entry.  An `AT_CAP` case runs in a
    subprocess under its timeout, every other case in this process."""
    workdir = Path(workdir)
    (workdir / "inputs").symlink_to(INPUTS, target_is_directory=True)
    timeout = AT_CAP.get(tuple(argv))
    if timeout is None:
        code, out, err = _run_in_process(argv, workdir)
    else:
        code, out, err = _run_subprocess(argv, workdir, timeout)
    files = {}
    for root, _, names in os.walk(workdir):  # does not enter the inputs link
        for name in names:
            path = Path(root, name)
            files[path.relative_to(workdir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "argv": list(argv),
        "exit": code,
        **_stream("stdout", out),
        **_stream("stderr", err),
        "files": dict(sorted(files.items())),
    }


def record_census(n: int) -> dict:
    """`census.vector_census(n, "graphs")` as a manifest entry: the sha256 of
    its vector listing, one JSON line `[vector, count, graph6 of the
    representative]` per entry in dict order, and of its class listing,
    one line `[canonical, satisfies, saturates, fails, states, member
    vectors, graph6 of the representative]` per class."""
    result = census.vector_census(n, "graphs")
    vectors = [
        [list(vals), count, to_graph6(result.representatives[vals])]
        for vals, count in result.vectors.items()
    ]
    classes = [
        [list(canon), *info.tally.as_triple(), info.state_count, info.member_vectors,
         to_graph6(info.representative)]
        for canon, info in result.classes.items()
    ]
    return {
        "call": f"vector_census({n}, 'graphs')",
        "n": n,
        **_stream("vectors", "".join(json.dumps(row) + "\n" for row in vectors)),
        **_stream("classes", "".join(json.dumps(row) + "\n" for row in classes)),
    }


def main() -> None:
    if "--corpus" in sys.argv[1:]:
        build_corpus()
    entries = []
    for argv in cases():
        with tempfile.TemporaryDirectory() as tmp:
            entries.append(record(argv, tmp))
    calls = [record_census(n) for n in CENSUS_NS]
    MANIFEST.write_text(json.dumps({"cases": entries, "calls": calls}, indent=1) + "\n")
    print(f"wrote {len(entries)} cases and {len(calls)} calls to {MANIFEST}")


if __name__ == "__main__":
    main()
