"""Each output check accepts real program output and rejects a corrupted copy.

Run from the repository root:  python3 -m pytest benchmarks/tests -q
"""

import copy
import json
import os

import pytest

import checks
import oracle
import workloads
from stabmmi import census


def paper_rows():
    rows = []
    for n, (sat_all, some, fail, vecs, classes, failing) in checks.PAPER_STATE_TABLE.items():
        rows.append({
            "n": n, "total_states": checks.state_total(n), "saturate_all": sat_all,
            "satisfy_some_fail_none": some, "fail_some": fail, "distinct_vectors": vecs,
            "classes_up_to_exchange": classes, "failing_vector_count": failing,
        })
    return rows


@pytest.fixture(scope="module")
def recomputed_n4():
    groups = [(t.x.rows, t.z.rows) for t in census.enumerate_stabilizer_groups(4)]
    return checks.census_row_from_groups(4, groups)


def test_state_census_accepts_paper_rows(recomputed_n4):
    assert checks.check_state_census(paper_rows(), recomputed_n4) == []
    real = census.state_census(4).__dict__
    assert checks.check_state_census([real], recomputed_n4) == []


@pytest.mark.parametrize("field", ["saturate_all", "fail_some", "distinct_vectors",
                                   "classes_up_to_exchange", "failing_vector_count"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_state_census_rejects_a_bucket_off_by_one(recomputed_n4, n, field):
    rows = paper_rows()
    row = next(r for r in rows if r["n"] == n)
    row[field] += 1
    assert checks.check_state_census(rows, recomputed_n4)


def test_state_census_recount_catches_a_repeated_group(recomputed_n4):
    bad = dict(recomputed_n4, distinct_groups=recomputed_n4["groups"] - 1)
    assert checks.check_state_census(paper_rows(), bad)


@pytest.fixture(scope="module")
def graph_census_out():
    return workloads.record_vector_census(census.vector_census(5, source="graphs"))


def test_graph_census_accepts_real_output(graph_census_out):
    assert checks.check_graph_census(graph_census_out) == []


def corrupt_graph_census(out, how):
    out = copy.deepcopy(out)
    if how == "multiplicity":
        out["vectors"][3][1] += 1
    elif how == "moved-count":
        out["vectors"][3][1] += 1
        out["vectors"][4][1] -= 1
    elif how == "representative":
        out["vectors"][5][2] = out["vectors"][6][2]
    elif how == "tally":
        out["classes"][2][1] += 1
        out["classes"][2][2] -= 1
    elif how == "class-count":
        out["classes"][2][4] += 32
        out["classes"][3][4] -= 32
    elif how == "dropped-class":
        out["classes"].pop()
    return out


@pytest.mark.parametrize("how", ["multiplicity", "moved-count", "representative", "tally",
                                 "class-count", "dropped-class"])
def test_graph_census_rejects_corruption(graph_census_out, how):
    assert checks.check_graph_census(corrupt_graph_census(graph_census_out, how))


@pytest.fixture(scope="module")
def scans():
    return {
        "four_star": census.four_star_conjecture_scan(5),
        "intersection": census.nontrivial_intersection_scan(4),
    }


def test_scans_accept_real_output(scans):
    assert checks.check_four_star(scans["four_star"]) == ([], 0)
    assert checks.check_intersection(scans["intersection"], checks.graphs_failing_nothing(4)) == ([], 0)


def test_four_star_rejects_a_wrong_witness(scans):
    out = copy.deepcopy(scans["four_star"])
    out["witnesses"][0]["witness"] = oracle.encode_graph6(5, (0,) * 5)
    errors, _ = checks.check_four_star(out)
    assert errors


def test_four_star_rejects_a_missing_vector(scans):
    out = copy.deepcopy(scans["four_star"])
    out["witnesses"].pop()
    out["failing_vectors"] -= 1
    errors, _ = checks.check_four_star(out)
    assert errors


def test_four_star_counts_an_unconfirmed_counterexample(scans):
    out = copy.deepcopy(scans["four_star"])
    rec = out["witnesses"].pop()
    out["counterexamples"].append(rec)  # its orbit does hold a four-star
    errors, unconfirmed = checks.check_four_star(out)
    assert errors == [] and unconfirmed == 1


def test_intersection_rejects_a_search_count_off_by_one(scans):
    out = dict(scans["intersection"], graphs_searched=scans["intersection"]["graphs_searched"] + 1)
    errors, _ = checks.check_intersection(out, checks.graphs_failing_nothing(4))
    assert errors


def test_intersection_counts_an_unconfirmed_counterexample(scans):
    empty = oracle.encode_graph6(4, (0,) * 4)  # no nontrivial star partition
    out = dict(scans["intersection"], counterexamples=[empty])
    assert checks.check_intersection(out, checks.graphs_failing_nothing(4)) == ([], 1)


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture(scope="module")
def cli_round(tmp_path_factory):
    """A few real invocations of the cli workload's first round."""
    workdir = tmp_path_factory.mktemp("cli")
    wl = workloads.cli(7, workdir, dict(os.environ))
    keep = {"entropy:g4", "entropy:t5", "mmi:g4", "mmi:t5", "circuit:c5", "classify:g6-partition",
            "classify:g6-search", "census-scan-four-star:6", "census-scan-intersection:5",
            "census-table14:4", "census-classes:5", "report:5", *workloads.FAULTS}
    metas, records = [], []
    for op in wl.ops:
        if op.label in keep:
            if op.prepare:
                op.prepare()
            metas.append(op.meta)
            records.append(op.record(op.call()))
    return metas, records


def test_cli_accepts_real_output(cli_round):
    metas, records = cli_round
    assert checks.check_cli(metas, records) == ([], 0)
    fault_ok = [r["ok"] for m, r in zip(metas, records) if m["kind"].startswith("fault")]
    assert fault_ok == [False, False]  # both known faults still fail


def corrupt_cli(records, metas, kind, edit):
    records = copy.deepcopy(records)
    idx = next(i for i, m in enumerate(metas) if m["kind"] == kind)
    edit(records[idx])
    return records


def wrong_entropy(rec):
    lines = rec["stdout"].splitlines()
    plain = json.loads(lines[0])
    plain["entropies"]["1"] += 1
    lines[0] = json.dumps(plain, sort_keys=True)
    rec["stdout"] = "\n".join(lines) + "\n"


def wrong_canonical(rec):
    lines = rec["stdout"].splitlines()
    canon = json.loads(lines[1])
    canon["entropies"]["3"], canon["entropies"]["5"] = canon["entropies"]["5"] + 1, canon["entropies"]["3"]
    lines[1] = json.dumps(canon, sort_keys=True)
    rec["stdout"] = "\n".join(lines) + "\n"


def wrong_tally(rec):
    lines = rec["stdout"].splitlines()
    _, a, b, c = lines[-1].split(",")
    lines[-1] = f"tally,{a},{int(b) + 1},{c}"
    rec["stdout"] = "\n".join(lines) + "\n"


def dropped_row(rec):
    lines = rec["stdout"].splitlines()
    del lines[1]
    rec["stdout"] = "\n".join(lines) + "\n"


def flipped_row(rec):
    lines = rec["stdout"].splitlines()
    swap = {"Satisfies": "Saturates", "Saturates": "Fails", "Fails": "Satisfies"}
    head, outcome = lines[1].rsplit(",", 1)
    lines[1] = f"{head},{swap[outcome]}"
    rec["stdout"] = "\n".join(lines) + "\n"


def edit_json(field, value):
    def edit(rec):
        data = json.loads(rec["stdout"])
        data[field] = value(data)
        rec["stdout"] = json.dumps(data)
    return edit


def moved_vertex(data):
    part = data["partition"]
    part["K"].append(part["C"].pop(0)) if len(part["C"]) > 1 else part["C"].append(part["K"].pop())
    return part


def wrong_rank(rec):
    rec["stdout"] = rec["stdout"].replace("=1 ", "=2 ", 1)


def wrong_table14(rec):
    rec["stdout"] = rec["stdout"].replace("18576", "18577")


def wrong_state_count(rec):
    data = json.loads(rec["file"])
    data["classes"][0]["state_count"] += 1
    data["classes"][1]["state_count"] -= 1
    rec["file"] = json.dumps(data)


def wrong_representative(rec):
    data = json.loads(rec["file"])
    data["classes"][0]["representative_graph6"] = data["classes"][1]["representative_graph6"]
    rec["file"] = json.dumps(data)


def missing_page(rec):
    rec["listing"] = rec["listing"][1:]


def wrong_searched(rec):
    data = json.loads(rec["stdout"])
    data["graphs_searched"] += 1
    rec["stdout"] = json.dumps(data)


def dropped_witness(rec):
    data = json.loads(rec["stdout"])
    data["witnesses"].pop()
    rec["stdout"] = json.dumps(data)


@pytest.mark.parametrize("kind,edit", [
    ("entropy", wrong_entropy),
    ("entropy", wrong_canonical),
    ("mmi", wrong_tally),
    ("mmi", dropped_row),
    ("mmi", flipped_row),
    ("classify", edit_json("outcome", lambda d: "Satisfies" if d["outcome"] != "Satisfies" else "Fails")),
    ("classify", edit_json("case", lambda d: d["case"] % 4 + 1)),
    ("classify", edit_json("partition", moved_vertex)),
    ("circuit", wrong_rank),
    ("census-table14", wrong_table14),
    ("census-classes", wrong_state_count),
    ("census-classes", wrong_representative),
    ("report", missing_page),
    ("census-scan-intersection", wrong_searched),
    ("census-scan-four-star", dropped_witness),
])
def test_cli_rejects_corruption(cli_round, kind, edit):
    metas, records = cli_round
    errors, _ = checks.check_cli(metas, corrupt_cli(records, metas, kind, edit))
    assert errors


def test_cli_counts_an_unconfirmed_counterexample(cli_round):
    metas, records = cli_round

    def fake_counterexample(rec):
        data = json.loads(rec["stdout"])
        data["counterexamples"] = [oracle.encode_graph6(5, (0,) * 5)]
        rec["stdout"] = json.dumps(data)

    bad = corrupt_cli(records, metas, "census-scan-intersection", fake_counterexample)
    assert checks.check_cli(metas, bad) == ([], 1)


@pytest.mark.parametrize("label,code,stdout,stderr,ok", [
    ("fault-mmi-two-qubits", 4, "instance-I,instance-J,instance-K,outcome\n", "internal invariant violation", False),
    ("fault-mmi-two-qubits", 0, "instance-I,instance-J,instance-K,outcome\ntally,0,0,0\n", "", True),
    ("fault-mmi-two-qubits", 0, "", "", False),
    ("fault-mmi-two-qubits", 1, "", "usage error: too few qubits", True),
    ("fault-table14-zero", 1, "", "Traceback (most recent call last):\n  IndexError", False),
    ("fault-table14-zero", 3, "", "cap exceeded", True),
    ("entropy:g4", 2, "", "parse error", False),
])
def test_invocation_ok(label, code, stdout, stderr, ok):
    assert workloads.invocation_ok(label, code, stdout, stderr) is ok
