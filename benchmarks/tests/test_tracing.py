"""Self-time arithmetic on synthetic span trees, and the tracer on stabmmi."""

import sys

import pytest

import tracing


def span(name, start, end, parent=-1, leaf_s=0.0, items=0):
    return [name, start, end, parent, leaf_s, items, None]


def test_self_time_subtracts_children_and_leaves():
    spans = [
        span("root", 0.0, 10.0, leaf_s=0.5),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: covered once
        span("c", 8.0, 12.0, parent=0),  # runs past the root: clipped at 10
        span("a.1", 2.0, 3.0, parent=1),
    ]
    root, a, b, c, a1 = tracing.self_times(spans)
    assert root == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0) - 0.5)
    assert a == pytest.approx(3.0 - 1.0)
    assert b == pytest.approx(3.0)
    assert c == pytest.approx(4.0)
    assert a1 == pytest.approx(1.0)


def test_self_time_of_nested_and_disjoint_children():
    spans = [
        span("root", 0.0, 100.0),
        span("x", 10.0, 20.0, parent=0, leaf_s=4.0),
        span("y", 30.0, 40.0, parent=0),
        span("y.1", 31.0, 39.0, parent=2, leaf_s=2.0),
        span("y.1.1", 32.0, 33.0, parent=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([80.0, 6.0, 2.0, 5.0, 1.0])


def test_merge_shifts_span_ids():
    one = {"spans": [span("r", 0, 1), span("c", 0, 1, parent=0)], "leaves": [["l", "c", 1, 2, 0.1, 0.1, 0]],
           "worker": {"1": {"f": [1, 5]}}, "absent": ["x.y"]}
    merged = tracing.merge([one, one])
    assert [s[3] for s in merged["spans"]] == [-1, 0, -1, 2]
    assert [leaf[2] for leaf in merged["leaves"]] == [1, 3]
    assert set(merged["worker"]) == {"1", "3"}
    assert merged["absent"] == ["x.y"]


@pytest.fixture
def traced():
    """A tracer installed on stabmmi; every binding is restored afterwards."""
    import stabmmi  # noqa: F401

    modules = [m for k, m in sys.modules.items() if k.startswith("stabmmi") and m]
    saved = [(m, dict(vars(m))) for m in modules]
    tracer = tracing.Tracer().install()
    yield tracer
    for mod, attrs in saved:
        vars(mod).update(attrs)
    tracing._active = None


def test_every_binding_is_wrapped(traced):
    from stabmmi import census, gf2, star

    assert star.intersect is gf2.intersect
    assert census.mmi_tally is sys.modules["stabmmi.entropy"].mmi_tally
    assert census.mmi_tally.__wrapped__ is not None
    assert traced.absent == []


def test_counts_repeat_and_nest(traced):
    from stabmmi import census

    results = []
    for _ in range(2):
        traced.reset()
        census.nontrivial_intersection_scan(4)
        results.append(tracing.layer_metrics(traced.dump(), 1))
    first, second = results
    for name in ("star.searches", "star.partitions", "gf2.rref_calls", "gf2.intersect_calls",
                 "census.single_entropy_calls", "census.rows", "entropy.mmi_tally_calls"):
        assert first[name] == second[name] > 0, name
    assert first["star.searches"] == 59
    assert first["census.single_entropy_calls"] == 64
    assert first["star.search_s"] >= first["star.block_spaces_s"] > 0


def test_pool_work_is_charged_to_the_pool_span(traced):
    from stabmmi import census

    census.vector_census(6, source="graphs", jobs=2)
    m = tracing.layer_metrics(traced.dump(), 1)
    assert m["census.batches"] == 1
    assert m["census.rows"] == 1 << 15
    assert m["census.pool_s"] > 0
    assert m["census.support_s"] == 0  # the batch ran in a worker


def test_a_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "census.no_such_stage", tracing.SPAN)
    monkeypatch.setattr(tracing, "_active", None)
    import stabmmi  # noqa: F401

    modules = [m for k, m in sys.modules.items() if k.startswith("stabmmi") and m]
    saved = [(m, dict(vars(m))) for m in modules]
    try:
        tracer = tracing.Tracer().install()
        assert tracer.absent == ["census.no_such_stage"]
        assert tracing.layer_metrics(tracer.dump(), 1)["census.batches"] == 0
    finally:
        for mod, attrs in saved:
            vars(mod).update(attrs)
