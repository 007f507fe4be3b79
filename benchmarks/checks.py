"""Output checks.  Each compares a workload's outputs with a computation
made apart from the timed code path (oracle.py), or with a property the
method must have, and returns a list of error messages (empty when the
outputs are right).
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache

import oracle

# the paper's per-state census: saturate-all, satisfy-some-fail-none,
# fail-some states; distinct vectors, exchange classes, failing vectors
PAPER_STATE_TABLE = {
    4: (18_576, 15_552, 2_592, 18, 6, 1),
    5: (370_656, 1_648_512, 404_352, 93, 11, 16),
    6: (9_118_656, 175_115_520, 130_823_424, 760, 26, 287),
}
# distinct entropy vectors and exchange classes over all labeled graphs
PAPER_GRAPH_TABLE = {4: (18, 6), 5: (93, 11), 6: (760, 26), 7: (10_773, 59)}
FAILING_VECTORS = {4: 1, 5: 16, 6: 287}
CASES = {(False, False): 1, (True, False): 2, (True, True): 3, (False, True): 4}


def state_total(n: int) -> int:
    """Signed stabilizer states: 2^n signs per unsigned group."""
    return oracle.group_count(n) << n



# ---------------------------------------------------------------------------
# state census


def census_row_from_groups(n: int, groups) -> dict:
    """The census row recomputed from explicit stabilizer groups, given as
    (x_rows, z_rows) pairs, with rank-per-mask entropies."""
    vectors: Counter = Counter()
    seen = set()
    for x, z in groups:
        gens = [xr | (zr << n) for xr, zr in zip(x, z)]
        seen.add(frozenset(oracle.span(gens)))
        vectors[oracle.tableau_entropies(n, x, z)] += 1
    buckets = [0, 0, 0]
    failing = 0
    for vals, count in vectors.items():
        sat, _saturates, fails = oracle.mmi_tally(vals, n)
        bucket = 2 if fails else 1 if sat else 0
        buckets[bucket] += count << n
        failing += bool(fails)
    return {
        "n": n,
        "groups": len(groups),
        "distinct_groups": len(seen),
        "total_states": len(groups) << n,
        "saturate_all": buckets[0],
        "satisfy_some_fail_none": buckets[1],
        "fail_some": buckets[2],
        "distinct_vectors": len(vectors),
        "classes_up_to_exchange": len({oracle.canonical(v, n) for v in vectors}),
        "failing_vector_count": failing,
    }


ROW_FIELDS = (
    "saturate_all", "satisfy_some_fail_none", "fail_some",
    "distinct_vectors", "classes_up_to_exchange", "failing_vector_count",
)


def check_state_census(rows: list[dict], recomputed: dict | None = None) -> list[str]:
    """rows: CensusRow fields per call.  recomputed: the n = 4 row from
    census_row_from_groups, when available."""
    errors = []
    for row in rows:
        n = row["n"]
        if row["total_states"] != state_total(n):
            errors.append(f"n={n}: total {row['total_states']} != 2^n prod(2^k+1) = {state_total(n)}")
        buckets = row["saturate_all"] + row["satisfy_some_fail_none"] + row["fail_some"]
        if buckets != state_total(n):
            errors.append(f"n={n}: buckets sum to {buckets}, not {state_total(n)}")
        got = tuple(row[f] for f in ROW_FIELDS)
        if n in PAPER_STATE_TABLE and got != PAPER_STATE_TABLE[n]:
            errors.append(f"n={n}: row {got} != paper {PAPER_STATE_TABLE[n]}")
        if recomputed is not None and n == recomputed["n"]:
            if recomputed["distinct_groups"] != recomputed["groups"]:
                errors.append(f"n={n}: enumeration repeats a group")
            for f in ("total_states", *ROW_FIELDS):
                if row[f] != recomputed[f]:
                    errors.append(f"n={n}: {f} {row[f]} != recomputed {recomputed[f]}")
    return errors


# ---------------------------------------------------------------------------
# graph census


def check_graph_census(out: dict) -> list[str]:
    """out: {"n", "vectors": [[values, count, graph6]], "classes":
    [[canonical, satisfies, saturates, fails, state_count, members]]}."""
    errors = []
    n = out["n"]
    vectors, classes = out["vectors"], out["classes"]
    expected = PAPER_GRAPH_TABLE.get(n)
    if expected and (len(vectors), len(classes)) != expected:
        errors.append(f"n={n}: {len(vectors)} vectors, {len(classes)} classes; expected {expected}")
    if sum(count for _v, count, _g in vectors) != 1 << oracle.edge_count(n):
        errors.append(f"n={n}: multiplicities do not sum to 2^{oracle.edge_count(n)}")
    by_class: dict[tuple, list[int]] = {}
    for vals, count, g6 in vectors:
        g_n, adj = oracle.decode_graph6(g6)
        if g_n != n or list(oracle.graph_entropies(n, adj)) != vals:
            errors.append(f"representative {g6} does not realize its vector")
        acc = by_class.setdefault(oracle.canonical(tuple(vals), n), [0, 0])
        acc[0] += count
        acc[1] += 1
    instances = oracle.instance_count(n)
    seen = set()
    for canon, sat, saturates, fails, states, members in classes:
        canon = tuple(canon)
        seen.add(canon)
        if sat + saturates + fails != instances:
            errors.append(f"class {canon[:8]}...: tally sums to {sat + saturates + fails}, not {instances}")
        if (sat, saturates, fails) != oracle.mmi_tally(canon, n):
            errors.append(f"class {canon[:8]}...: tally {(sat, saturates, fails)} is wrong")
        if by_class.get(canon) != [states, members]:
            errors.append(
                f"class {canon[:8]}...: {states} graphs in {members} vectors, "
                f"recomputed {by_class.get(canon)}"
            )
    if seen != set(by_class):
        errors.append("class set differs from the brute-force canonical forms")
    return errors


# ---------------------------------------------------------------------------
# conjecture scans


@lru_cache(maxsize=None)
def labeled_graph_vectors(n: int) -> dict[tuple[int, ...], int]:
    """Entropy vector -> number of labeled graphs on n vertices, by brute force."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    vectors: Counter = Counter()
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for e, (u, v) in enumerate(pairs):
            if (mask >> e) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        vectors[oracle.graph_entropies(n, tuple(adj))] += 1
    return dict(vectors)


def graphs_failing_nothing(n: int) -> int:
    """Labeled graphs on n vertices whose entropy vector fails no MMI instance."""
    return sum(
        count
        for vals, count in labeled_graph_vectors(n).items()
        if oracle.mmi_tally(vals, n)[2] == 0
    )


def check_four_star(out: dict) -> tuple[list[str], int]:
    """Returns (errors, counterexamples that fail re-verification)."""
    errors, unconfirmed = [], 0
    n = out["n"]
    if out["failing_vectors"] != FAILING_VECTORS.get(n, out["failing_vectors"]):
        errors.append(f"four-star n={n}: {out['failing_vectors']} failing vectors, expected {FAILING_VECTORS[n]}")
    records = out["witnesses"] + out["counterexamples"] + out.get("budget_exceeded", [])
    if len(records) != out["failing_vectors"]:
        errors.append(f"four-star n={n}: {len(records)} records for {out['failing_vectors']} vectors")
    if out.get("budget_exceeded"):
        errors.append(f"four-star n={n}: orbit budget exceeded")
    for rec in out["witnesses"]:
        _, rep = oracle.decode_graph6(rec["representative"])
        _, wit = oracle.decode_graph6(rec["witness"])
        vals = oracle.graph_entropies(n, rep)
        if oracle.mmi_tally(vals, n)[2] == 0:
            errors.append(f"four-star n={n}: {rec['representative']} fails no MMI instance")
        if oracle.graph_entropies(n, wit) != vals:
            errors.append(f"four-star n={n}: witness {rec['witness']} has another entropy vector")
        if not oracle.has_induced_four_star(n, wit):
            errors.append(f"four-star n={n}: witness {rec['witness']} has no induced K_1,3")
    for rec in out["counterexamples"]:
        _, rep = oracle.decode_graph6(rec["representative"])
        if any(oracle.has_induced_four_star(n, g) for g in oracle.lc_orbit(rep)):
            unconfirmed += 1
    return errors, unconfirmed


def check_intersection(out: dict, failing_nothing: int) -> tuple[list[str], int]:
    errors, unconfirmed = [], 0
    n = out["n"]
    if out["graphs_searched"] != failing_nothing:
        errors.append(f"intersection n={n}: searched {out['graphs_searched']}, expected {failing_nothing}")
    for g6 in out["counterexamples"]:
        _, adj = oracle.decode_graph6(g6)
        fails = oracle.mmi_tally(oracle.graph_entropies(n, adj), n)[2]
        if fails or not oracle.has_nontrivial_star(n, adj):
            unconfirmed += 1
    return errors, unconfirmed


# ---------------------------------------------------------------------------
# CLI


def render(mask: int) -> str:
    return "+".join(str(v + 1) for v in range(mask.bit_length()) if (mask >> v) & 1)


def parse_subset(text: str) -> int:
    return sum(1 << (int(v) - 1) for v in text.split("+"))


def source_entropies(meta: dict) -> tuple[int, ...]:
    if meta.get("source") == "tableau":
        return oracle.tableau_entropies(meta["n"], meta["x"], meta["z"])
    return oracle.graph_entropies(meta["n"], tuple(meta["adj"]))


def check_entropy(meta: dict, rec: dict) -> list[str]:
    n = meta["n"]
    lines = rec["stdout"].strip().splitlines()
    if len(lines) != 2:
        return [f"entropy: {len(lines)} output lines, expected 2"]
    plain, canon = (json.loads(line) for line in lines)
    expected = source_entropies(meta)
    errors = []
    for data, vals, flag in ((plain, expected, False), (canon, oracle.canonical(expected, n), True)):
        got = {int(k): v for k, v in data["entropies"].items()}
        want = {m: vals[m - 1] for m in range(1, 1 << n)}
        if data["n"] != n or data["canonical"] is not flag or got != want:
            errors.append(f"entropy n={n}: {'canonical' if flag else 'plain'} vector is wrong")
    return errors


def check_mmi(meta: dict, rec: dict) -> list[str]:
    n = meta["n"]
    lines = rec["stdout"].strip().splitlines()
    if not lines or lines[0] != "instance-I,instance-J,instance-K,outcome":
        return ["mmi: missing CSV header"]
    vals = source_entropies(meta)
    rows, tally = lines[1:-1], lines[-1]
    errors = []
    if len(rows) != oracle.instance_count(n):
        errors.append(f"mmi n={n}: {len(rows)} rows, expected {oracle.instance_count(n)}")
    counts = Counter()
    seen = []
    for row in rows:
        i, j, k, outcome = row.split(",")
        inst = tuple(sorted(parse_subset(s) for s in (i, j, k)))
        seen.append(inst)
        counts[outcome] += 1
        if outcome != oracle.mmi_outcome(vals, *inst):
            errors.append(f"mmi n={n}: row {row} has the wrong outcome")
            break
    if sorted(seen) != list(oracle.mmi_instances(n)):
        errors.append(f"mmi n={n}: rows are not the MMI instances")
    want = f"tally,{counts['Satisfies']},{counts['Saturates']},{counts['Fails']}"
    if tally != want:
        errors.append(f"mmi n={n}: tally line {tally!r} != table counts {want!r}")
    return errors


def check_classify(meta: dict, rec: dict) -> list[str]:
    n, adj = meta["n"], tuple(meta["adj"])
    data = json.loads(rec["stdout"])
    if "partition" not in data:
        # a qualifying partition was planted in the input
        return [f"classify n={n}: no partition reported"]
    part = data["partition"]
    masks = [sum(1 << (v - 1) for v in part[key]) for key in "CIJK"]
    c, i, j, k = masks
    errors = []
    if sum(bin(m).count("1") for m in masks) != n or (c | i | j | k) != (1 << n) - 1 or not all(masks):
        return [f"classify n={n}: {part} is not a partition"]
    if "partition" in meta and part != meta["partition"]:
        errors.append(f"classify n={n}: reported {part}, given {meta['partition']}")
    if not oracle.is_star(adj, c, i, j, k):
        errors.append(f"classify n={n}: {part} has an edge between two blocks")
        return errors
    w_i, w_j, w_k = oracle.column_spaces(adj, c, i, j, k)
    nontrivial = len(w_i & w_j & w_k) > 1
    dist = oracle.is_distributive(w_i, w_j, w_k)
    if data["nontrivial_intersection"] != nontrivial or data["distributive"] != dist:
        errors.append(f"classify n={n}: intersection/distributivity flags are wrong")
    if data["case"] != CASES[(dist, nontrivial)]:
        errors.append(f"classify n={n}: case {data['case']} is wrong")
    if "partition" not in meta and not nontrivial:
        errors.append(f"classify n={n}: searched partition has a trivial intersection")
    outcome = oracle.mmi_outcome(oracle.graph_entropies(n, adj), c, i, j)
    if data["outcome"] != outcome:
        errors.append(f"classify n={n}: outcome {data['outcome']}, expected {outcome}")
    return errors


def expected_circuit_output(n: int, gates: list) -> str:
    """The circuit command's output, recomputed with an independently simulated tableau."""
    x, z = oracle.zero_tableau(n)
    instances = oracle.mmi_instances(n)

    def ranks() -> str:
        return " ".join(
            f"{render(m)}={oracle.projected_rank(n, x, z, m)}" for m in range(1, 1 << n)
        )

    def outcomes() -> list[str]:
        vals = oracle.tableau_entropies(n, x, z)
        return [oracle.mmi_outcome(vals, *inst) for inst in instances]

    lines = ["initial ranks: " + ranks()]
    before = outcomes()
    for name, qubits in gates:
        oracle.apply_gate(x, z, name, tuple(qubits))
        lines.append(f"after {name} {' '.join(map(str, qubits))}: " + ranks())
        after = outcomes()
        for inst, old, new in zip(instances, before, after):
            if old != new:
                i, j, k = (render(m) for m in inst)
                lines.append(f"  MMI({i};{j};{k}): {old} -> {new}")
        before = after
    return "\n".join(lines) + "\n"


def check_circuit(meta: dict, rec: dict) -> list[str]:
    if rec["stdout"] != expected_circuit_output(meta["n"], meta["gates"]):
        return [f"circuit n={meta['n']}: ranks or MMI changes differ from the simulated tableau"]
    return []


def check_table14(meta: dict, rec: dict) -> list[str]:
    n = meta["n"]
    row = ",".join(map(str, (n, state_total(n), *PAPER_STATE_TABLE[n])))
    header = (
        "n,total_states,saturate_all,satisfy_some_fail_none,fail_some,"
        "distinct_vectors,classes,failing_vectors"
    )
    if rec["stdout"] != f"{header}\n{row}\n":
        return [f"census --table14 {n}: output differs from the paper's row {row}"]
    return []


def check_classes(meta: dict, rec: dict) -> list[str]:
    n = meta["n"]
    data = json.loads(rec["file"])
    classes = data["classes"]
    want_vectors, want_classes = PAPER_GRAPH_TABLE[n]
    errors = []
    if data["n"] != n or len(classes) != want_classes:
        errors.append(f"census --classes {n}: {len(classes)} classes, expected {want_classes}")
    if [c["class_id"] for c in classes] != list(range(1, len(classes) + 1)):
        errors.append(f"census --classes {n}: class ids are not 1..{len(classes)}")
    if sum(c["state_count"] for c in classes) != 1 << oracle.edge_count(n):
        errors.append(f"census --classes {n}: state counts do not sum to 2^{oracle.edge_count(n)}")
    if sum(c["member_vectors"] for c in classes) != want_vectors:
        errors.append(f"census --classes {n}: member vectors do not sum to {want_vectors}")
    by_class: dict[tuple, list[int]] = {}
    for vals, count in labeled_graph_vectors(n).items():
        acc = by_class.setdefault(oracle.canonical(vals, n), [0, 0])
        acc[0] += count
        acc[1] += 1
    for c in classes:
        canon = tuple(c["canonical_vector"])
        if by_class.get(canon) != [c["state_count"], c["member_vectors"]]:
            errors.append(f"class {c['class_id']}: state or member count differs from a recount")
        if oracle.canonical(canon, n) != canon:
            errors.append(f"class {c['class_id']}: vector is not canonical")
        if (c["satisfies"], c["saturates"], c["fails"]) != oracle.mmi_tally(canon, n):
            errors.append(f"class {c['class_id']}: tally is wrong")
        g6 = c["representative_graph6"]
        g_n, adj = oracle.decode_graph6(g6) if g6 else (0, ())
        if g_n != n or oracle.canonical(oracle.graph_entropies(n, adj), n) != canon:
            errors.append(f"class {c['class_id']}: representative {g6} does not realize it")
    return errors


def check_report(meta: dict, rec: dict, classes: int) -> list[str]:
    pages = sorted([f"class-{i}.html" for i in range(1, classes + 1)] + ["index.html"])
    errors = []
    if rec["listing"] != pages:
        errors.append(f"report: wrote {rec['listing']}, expected {classes + 1} pages")
    if rec["stdout"].strip() != f"wrote {classes + 1} pages to report5":
        errors.append(f"report: message {rec['stdout'].strip()!r}")
    return errors


SCAN_CHECKS = {
    "census-scan-four-star": check_four_star,
    "census-scan-intersection": lambda out: check_intersection(out, graphs_failing_nothing(out["n"])),
}

CLI_CHECKS = {
    "entropy": check_entropy,
    "mmi": check_mmi,
    "classify": check_classify,
    "circuit": check_circuit,
    "census-table14": check_table14,
    "census-classes": check_classes,
}


def check_cli(metas: list[dict], records: list[dict]) -> tuple[list[str], int]:
    """Checks every successful invocation of one round.  Returns (errors,
    reported counterexamples that fail re-verification)."""
    errors, unconfirmed = [], 0
    classes = None
    for meta, rec in zip(metas, records):
        kind = meta.get("kind")
        if rec is None or not rec["ok"]:
            continue
        try:
            if kind == "report":
                errors += check_report(meta, rec, classes or 0)
            elif kind in CLI_CHECKS:
                errors += CLI_CHECKS[kind](meta, rec)
            elif kind in SCAN_CHECKS:
                found, bad = SCAN_CHECKS[kind](json.loads(rec["stdout"]))
                errors += found
                unconfirmed += bad
            if kind == "census-classes":
                classes = len(json.loads(rec["file"])["classes"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"{' '.join(rec['argv'])}: unreadable output ({exc!r})")
    return errors, unconfirmed
