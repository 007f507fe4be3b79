"""The benchmark's workloads: the operations of one round, and their inputs.

Every workload is a closed loop with one caller: a round is a fixed list of
operations, run one after another, and a run repeats whole rounds.  An
operation's `call` is what is timed; its `record` turns the result into
JSON for the output checks, outside the timed region.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

import oracle

BENCH_DIR = Path(__file__).resolve().parent
SHIM = BENCH_DIR / "cli_shim.py"

# stabmmi invocations that fail today; each passes once it exits with a code
# from 0 to 3 without a traceback (the first must then print "tally,0,0,0")
FAULTS = {
    "fault-mmi-two-qubits": ["mmi", "two.json"],
    "fault-table14-zero": ["census", "--table14", "0"],
}

INVOCATION_TIMEOUT_S = 150


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    record: Callable[[Any], Any]
    meta: dict = field(default_factory=dict)
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    items_per_round: int  # groups, labeled graphs or invocations


# ---------------------------------------------------------------------------
# library workloads


STATE_NS = (4, 5, 6)
GRAPH_N = 6


def state_census(jobs: int) -> Workload:
    from stabmmi import census

    ops = [
        Op(f"state_census({n})", lambda n=n: census.state_census(n, jobs=jobs), asdict)
        for n in STATE_NS
    ]
    return Workload(ops, sum(oracle.group_count(n) for n in STATE_NS))


def record_vector_census(result) -> dict:
    from stabmmi.graphs import to_graph6

    return {
        "n": result.n,
        "vectors": [
            [list(vals), count, to_graph6(result.representatives[vals])]
            for vals, count in sorted(result.vectors.items())
        ],
        "classes": [
            [list(canon), *info.tally.as_triple(), info.state_count, info.member_vectors]
            for canon, info in sorted(result.classes.items())
        ],
    }


def graph_census(jobs: int) -> Workload:
    from stabmmi import census

    op = Op(
        f"vector_census({GRAPH_N}, graphs)",
        lambda: census.vector_census(GRAPH_N, source="graphs", jobs=min(jobs, 2)),
        record_vector_census,
    )
    return Workload([op], 1 << oracle.edge_count(GRAPH_N))


# ---------------------------------------------------------------------------
# CLI workload: seeded inputs written to files, one subprocess per operation

CLI_NS = (4, 5, 6, 7, 8)
BASE_SEED = 2511
# entropy canonicalizes over all n! relabelings; at n = 8 that takes ~8 s,
# so the 8-qubit tableau gets no entropy call, to keep a round near 25 s
ENTROPY_TABLEAU_NS = (4, 5, 6, 7)


def planted_star(rng: random.Random, n: int):
    """A random graph that is a generalized star for a random partition
    (C, I, J, K) whose block column spaces share a nonzero vector."""
    verts = list(range(n))
    rng.shuffle(verts)
    c_size = rng.randint(1, n - 3)
    parts = [verts[:c_size], [verts[c_size]], [verts[c_size + 1]], [verts[c_size + 2]]]
    for v in verts[c_size + 3 :]:
        parts[rng.randrange(4)].append(v)
    adj = [0] * n

    def link(u, v):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    c_part = parts[0]
    for u in range(n):
        for v in range(u + 1, n):
            same = [p for p in parts if u in p and v in p]
            touches_c = u in c_part or v in c_part
            if (same or touches_c) and rng.random() < 0.5:
                link(u, v)
    # one vertex of each block sees exactly the same nonempty set of C
    shared = [v for v in c_part if rng.random() < 0.5] or [c_part[0]]
    for block in parts[1:]:
        v = block[0]
        for u in c_part:
            if ((adj[v] >> u) & 1) != (u in shared):
                adj[v] ^= 1 << u
                adj[u] ^= 1 << v
    partition = {key: sorted(v + 1 for v in p) for key, p in zip("CIJK", parts)}
    return tuple(adj), partition


def random_gates(rng: random.Random, n: int, count: int) -> list[tuple[str, tuple[int, ...]]]:
    gates = []
    for _ in range(count):
        name = rng.choice(("H", "S", "CNOT", "CZ"))
        if name in ("H", "S"):
            gates.append((name, (rng.randint(1, n),)))
        else:
            gates.append((name, tuple(rng.sample(range(1, n + 1), 2))))
    return gates


def gate_line(name: str, qubits: tuple[int, ...]) -> str:
    return " ".join([name, *map(str, qubits)])


def invocation_ok(label: str, code: int, stdout: str, stderr: str) -> bool:
    """Whether an invocation succeeded.  The known-fault operations pass on
    a user-error exit (1 to 3) too, but never on a traceback or code 4."""
    if "Traceback (most recent call last)" in stderr:
        return False
    if label in FAULTS:
        if label == "fault-mmi-two-qubits" and code == 0:
            return "tally,0,0,0" in stdout
        return 0 <= code <= 3
    return code == 0


def relabeled(n: int, perm: list[int], adj, partition, gates, script):
    """The inputs with vertex/qubit v+1 renamed perm[v]+1."""
    new_adj = [0] * n
    for v in range(n):
        new_adj[perm[v]] = sum(1 << perm[w] for w in range(n) if (adj[v] >> w) & 1)
    new_part = {key: sorted(perm[v - 1] + 1 for v in vs) for key, vs in partition.items()}

    def move(gate_list):
        return [(name, tuple(perm[q - 1] + 1 for q in qubits)) for name, qubits in gate_list]

    return tuple(new_adj), new_part, move(gates), move(script)


def cli(seed: int, workdir: Path, env: dict[str, str]) -> Workload:
    """Writes the input files into workdir; returns the invocations.

    The inputs are drawn once from BASE_SEED; the run's seed picks a random
    relabeling of the vertices and qubits of each.  So every seed gives other
    files and outputs, but the same amount of work."""
    base = random.Random(BASE_SEED)
    rng = random.Random(seed)
    ops: list[Op] = []

    def invoke(label: str, argv: list[str], meta: dict, extra=None, prepare=None):
        def call():
            return subprocess.run(
                [sys.executable, str(SHIM), *argv],
                cwd=workdir,
                env=env,
                capture_output=True,
                text=True,
                timeout=INVOCATION_TIMEOUT_S,
            )

        def record(proc):
            out = {"argv": argv, "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
            out["ok"] = invocation_ok(label, proc.returncode, proc.stdout, proc.stderr)
            if extra is not None:
                out.update(extra())
            return out

        ops.append(Op(label, call, record, {"kind": label.split(":")[0], **meta}, prepare))

    for n in CLI_NS:
        adj, partition = planted_star(base, n)
        perm = list(range(n))
        rng.shuffle(perm)
        adj, partition, tab_gates, gates = relabeled(
            n, perm, adj, partition, random_gates(base, n, 4 * n), random_gates(base, n, 3 * n)
        )
        graph_file = f"g{n}.g6" if n % 2 == 0 else f"g{n}.json"
        if n % 2 == 0:
            text = oracle.encode_graph6(n, adj) + "\n"
        else:
            edges = [[u + 1, v + 1] for u in range(n) for v in range(u + 1, n) if (adj[u] >> v) & 1]
            text = json.dumps({"n": n, "edges": edges})
        (workdir / graph_file).write_text(text)

        x, z = oracle.zero_tableau(n)
        for name, qubits in tab_gates:
            oracle.apply_gate(x, z, name, qubits)
        rows = [
            "".join(str((xr >> q) & 1) for q in range(n)) + "".join(str((zr >> q) & 1) for q in range(n))
            for xr, zr in zip(x, z)
        ]
        tab_file = f"t{n}.txt" if n % 2 == 0 else f"t{n}.json"
        text = "\n".join(rows) + "\n" if n % 2 == 0 else json.dumps({"tableau": rows})
        (workdir / tab_file).write_text(text)

        (workdir / f"c{n}.txt").write_text("".join(gate_line(*g) + "\n" for g in gates))

        graph_meta = {"n": n, "adj": list(adj)}
        tab_meta = {"n": n, "x": x, "z": z}
        invoke(f"entropy:g{n}", ["entropy", graph_file], {"source": "graph", **graph_meta})
        if n in ENTROPY_TABLEAU_NS:
            invoke(f"entropy:t{n}", ["entropy", tab_file], {"source": "tableau", **tab_meta})
        if n % 2 == 0:
            invoke(f"mmi:g{n}", ["mmi", graph_file], {"source": "graph", **graph_meta})
        else:
            invoke(f"mmi:t{n}", ["mmi", tab_file], {"source": "tableau", **tab_meta})
        invoke(f"circuit:c{n}", ["circuit", f"c{n}.txt", "-n", str(n)],
               {"n": n, "gates": [[name, list(q)] for name, q in gates]})
        invoke(f"classify:g{n}-partition",
               ["classify", graph_file, "--partition", json.dumps(partition)],
               {"partition": partition, **graph_meta})
        invoke(f"classify:g{n}-search", ["classify", graph_file], graph_meta)

    # the conjecture scans at the largest sizes that fit a round: the
    # intersection scan at n = 6 alone takes about 70 s
    invoke("census-scan-four-star:6", ["census", "--scan-four-star", "6"], {"n": 6})
    invoke("census-scan-intersection:5", ["census", "--scan-intersection", "5"], {"n": 5})
    invoke("census-table14:4", ["census", "--table14", "4"], {"n": 4})
    invoke("census-classes:5", ["census", "--classes", "5", "--source", "graphs", "--json",
                                "-o", "classes5.json"], {"n": 5},
           extra=lambda: {"file": (workdir / "classes5.json").read_text()})
    report_dir = workdir / "report5"
    invoke("report:5", ["report", "classes5.json", "-d", "report5"], {"n": 5},
           extra=lambda: {"listing": sorted(p.name for p in report_dir.iterdir())},
           prepare=lambda: shutil.rmtree(report_dir, ignore_errors=True))

    (workdir / "two.json").write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
    for label, argv in FAULTS.items():
        invoke(label, argv, {})
    return Workload(ops, len(ops))


NAMES = ("state-census", "graph-census", "cli")


def build(name: str, seed: int, jobs: int, workdir: Path, env: dict[str, str]) -> Workload:
    if name == "state-census":
        return state_census(jobs)
    if name == "graph-census":
        return graph_census(jobs)
    if name == "cli":
        return cli(seed, workdir, env)
    raise ValueError(f"unknown workload {name!r}")
