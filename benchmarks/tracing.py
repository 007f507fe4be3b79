"""Per-layer tracing of stabmmi from outside the program.

`Tracer.install()` replaces every binding of the functions in TARGETS, in
every loaded stabmmi module, with a timing wrapper (census binds
`mmi_tally` by name, star binds `intersect` by name, and so on).  A call to
a "span" target is kept as one span: name, start, end and parent span.  A
call to a "leaf" target, and each resume of a "gen" target (a generator),
is aggregated into count, total time and self time per (function, caller,
enclosing span), which keeps the memory of a traced run bounded.  A span
called from inside a leaf is aggregated like a leaf, so that child time is
never subtracted twice.

A process pool opened through a module's `multiprocessing` binding has
each `map` traced as one `census.pool` span: the work done in the pool workers is
charged to that span, and only their call and item counts are sent back.
Targets that the code no longer has are listed in `absent`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

SPAN, LEAF, GEN = "span", "leaf", "gen"

# qualified name (module inside stabmmi . function) -> kind
TARGETS = {
    "census.state_census": SPAN,
    "census.vector_census": SPAN,
    "census.vector_census_classes_count": SPAN,
    "census.four_star_conjecture_scan": SPAN,
    "census.nontrivial_intersection_scan": SPAN,
    "census._vector_counts_groups": SPAN,
    "census._vector_counts_graphs": SPAN,
    "census._graph_chunk_tally": SPAN,
    "census._group_batch_values": SPAN,
    "census._graph_batch_values": SPAN,
    "census._orbit_four_star_search": SPAN,
    "census._support_entropy_values": LEAF,
    "census._zeta_and_values": LEAF,
    "census.graph_entropy_values": LEAF,
    "census._perm_table": LEAF,
    "census._canonical_values": LEAF,
    "entropy.entropy_vector": LEAF,
    "entropy.mmi_tally": LEAF,
    "entropy.canonicalize": LEAF,
    "star.find_star_partition": SPAN,
    "star._partitions": GEN,
    "star.block_spaces": LEAF,
    "gf2.rref": LEAF,
    "gf2.rank": LEAF,
    "gf2.intersect": LEAF,
    "gf2.sum_spaces": LEAF,
    "gf2.is_distributive": LEAF,
    "graphs.enumerate_graphs": GEN,
    "graphs.local_complement": LEAF,
    "tableau.entropy": LEAF,
    "tableau.rank_vector": LEAF,
    "tableau.apply_h": LEAF,
    "tableau.apply_s": LEAF,
    "tableau.apply_cnot": LEAF,
    "tableau.apply_cz": LEAF,
    "cli.main": SPAN,
    "cli._class_representative": SPAN,
}

POOL = "census.pool"

# items counted per call: entropy rows produced, or searches that found a partition
_ITEMS = {
    "census._group_batch_values": lambda result: len(result),
    "census._graph_batch_values": lambda result: len(result),
    "census._support_entropy_values": lambda result: 1,
    "star.find_star_partition": lambda result: int(result is not None),
}

# the tracer of this process, for pool workers that inherit it by fork
_active: "Tracer | None" = None


class Tracer:
    def __init__(self) -> None:
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        # span: [name, start, end, parent span, leaf-covered s, items, tag]
        self.spans: list[list] = []
        # (name, caller, enclosing span) -> [calls, total s, self s, items]
        self.leaves: dict[tuple[str, str, int], list] = {}
        # pool span -> {name: [calls, items]} counted inside its workers
        self.worker: dict[int, dict[str, list[int]]] = {}
        # frame: [name, start, covered s, items, enclosing span, is span]
        self.stack: list[list] = []

    # -- recording --------------------------------------------------------

    def call(self, name, as_span, fn, args, kwargs, tag=None):
        stack = self.stack
        parent = stack[-1] if stack else None
        as_span = as_span and (parent is None or parent[5])
        if as_span:
            enclosing = len(self.spans)
            rec = [name, 0.0, 0.0, parent[4] if parent else -1, 0.0, 0, tag]
            self.spans.append(rec)
        else:
            enclosing = parent[4] if parent else -1
        frame = [name, 0.0, 0.0, 0, enclosing, as_span]
        stack.append(frame)
        items = _ITEMS.get(name)
        frame[1] = start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if items is not None:
                frame[3] += items(result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if as_span:
                rec[1], rec[2], rec[4], rec[5] = start, end, frame[2], frame[3]
            else:
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                key = (name, parent[0] if parent else "", enclosing)
                agg = self.leaves.get(key)
                if agg is None:
                    self.leaves[key] = [1, dur, dur - frame[2], frame[3]]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[2]
                    agg[3] += frame[3]

    def _wrap(self, name: str, kind: str, fn):
        if kind == GEN:

            def step(it):
                item = next(it)
                self.stack[-1][3] += 1
                return item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(name, False, step, (it,), {})
                    except StopIteration:
                        return
                    yield item

            return gen_wrapper

        as_span = kind == SPAN
        tagged = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = args[0][0] if tagged and args and args[0] else None
            return self.call(name, as_span, fn, args, kwargs, tag)

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every binding of each target in every loaded stabmmi module."""
        global _active
        homes = {}
        for mod_name in {q.split(".")[0] for q in TARGETS}:
            try:
                homes[mod_name] = importlib.import_module(f"stabmmi.{mod_name}")
            except ImportError:
                homes[mod_name] = None
        modules = [m for key, m in sys.modules.items() if key.startswith("stabmmi") and m]
        for qualname, kind in TARGETS.items():
            mod_name, func_name = qualname.split(".")
            original = getattr(homes[mod_name], func_name, None)
            if original is None:
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, kind, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        import multiprocessing

        for mod in modules:
            if getattr(mod, "multiprocessing", None) is multiprocessing:
                mod.multiprocessing = _TracedMultiprocessing(multiprocessing, self)
        _active = self
        return self

    # -- results ----------------------------------------------------------

    def counts(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for name, _s, _e, _p, _l, items, _t in self.spans:
            out[name][0] += 1
            out[name][1] += items
        for (name, _c, _i), (calls, _tot, _self, items) in self.leaves.items():
            out[name][0] += calls
            out[name][1] += items
        return dict(out)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[*key, *val] for key, val in self.leaves.items()],
            "worker": {str(k): v for k, v in self.worker.items()},
            "absent": self.absent,
        }


# ---------------------------------------------------------------------------
# process pools


class _WorkerCall:
    """Runs one pool task; returns its value and the task's call counts."""

    def __init__(self, func) -> None:
        self.func = func

    def __call__(self, arg):
        tracer = _active
        if tracer is not None:
            tracer.reset()  # drop the parent's state copied by fork
        value = self.func(arg)
        return value, tracer.counts() if tracer is not None else {}


class _TracedPool:
    def __init__(self, pool, tracer: Tracer) -> None:
        self._pool = pool
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._pool, attr)

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def map(self, func, iterable, *args):
        def inner():
            pairs = self._pool.map(_WorkerCall(func), iterable, *args)
            merged = self._tracer.worker.setdefault(self._tracer.stack[-1][4], {})
            for _value, counts in pairs:
                for name, (calls, items) in counts.items():
                    acc = merged.setdefault(name, [0, 0])
                    acc[0] += calls
                    acc[1] += items
            return [value for value, _counts in pairs]

        return self._tracer.call(POOL, True, inner, (), {})


class _TracedMultiprocessing:
    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._module, attr)

    def Pool(self, *args, **kwargs):  # noqa: N802  (mirrors multiprocessing.Pool)
        return _TracedPool(self._module.Pool(*args, **kwargs), self._tracer)


# ---------------------------------------------------------------------------
# analysis


def merge(dumps: list[dict]) -> dict:
    """One trace from several (one per CLI invocation), span ids shifted."""
    out = {"spans": [], "leaves": [], "worker": {}, "absent": []}
    for d in dumps:
        base = len(out["spans"])
        for name, start, end, parent, leaf_s, items, tag in d["spans"]:
            out["spans"].append(
                [name, start, end, parent + base if parent >= 0 else -1, leaf_s, items, tag]
            )
        for name, caller, span, *vals in d["leaves"]:
            out["leaves"].append([name, caller, span + base if span >= 0 else -1, *vals])
        for span, counts in d["worker"].items():
            out["worker"][str(int(span) + base)] = counts
        out["absent"] = sorted(set(out["absent"]) | set(d["absent"]))
    return out


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration, minus the part of its interval
    covered by its child spans, minus the time of its aggregated leaf calls."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_name, start, end, _parent, leaf_s, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered - leaf_s)
    return out


class _Stats:
    """Per-function totals over one trace."""

    def __init__(self, trace: dict) -> None:
        self.spans = trace["spans"]
        self.leaves = trace["leaves"]
        self.self_s = self_times(self.spans)
        self.worker = trace["worker"]

    def _rows(self, name: str, caller_prefix: str | None):
        """(calls, total s, self s, items) rows for one function."""
        for idx, span in enumerate(self.spans):
            if span[0] != name:
                continue
            caller = self.spans[span[3]][0] if span[3] >= 0 else ""
            if caller_prefix is None or caller.startswith(caller_prefix):
                yield 1, span[2] - span[1], self.self_s[idx], span[5]
        for leaf_name, caller, _span, calls, total, self_s, items in self.leaves:
            if leaf_name == name and (caller_prefix is None or caller.startswith(caller_prefix)):
                yield calls, total, self_s, items

    def calls(self, *names: str, caller: str | None = None) -> int:
        n = sum(row[0] for name in names for row in self._rows(name, caller))
        return n + sum(c.get(name, [0, 0])[0] for c in self.worker.values() for name in names)

    def items(self, *names: str) -> int:
        n = sum(row[3] for name in names for row in self._rows(name, None))
        return n + sum(c.get(name, [0, 0])[1] for c in self.worker.values() for name in names)

    def total_s(self, *names: str, caller: str | None = None) -> float:
        return sum(row[1] for name in names for row in self._rows(name, caller))

    def self_time(self, *names: str) -> float:
        return sum(row[2] for name in names for row in self._rows(name, None))

    def partitions_per_hit(self) -> float:
        hits = [i for i, s in enumerate(self.spans) if s[0] == "star.find_star_partition" and s[5]]
        if not hits:
            return 0.0
        wanted = set(hits)
        yielded = sum(
            row[6] for row in self.leaves if row[0] == "star._partitions" and row[2] in wanted
        )
        return yielded / len(hits)

    def main_p50_ms(self, subcommand: str) -> float:
        durations = [
            (s[2] - s[1]) * 1000 for s in self.spans if s[0] == "cli.main" and s[6] == subcommand
        ]
        return statistics.median(durations) if durations else 0.0


GATES = ("tableau.apply_h", "tableau.apply_s", "tableau.apply_cnot", "tableau.apply_cz")
SUBCOMMANDS = ("entropy", "mmi", "classify", "circuit", "census", "report")


def layer_metrics(trace: dict, rounds: int) -> dict[str, float]:
    """Per-round layer metrics from one traced run of `rounds` rounds."""
    st = _Stats(trace)
    per = 1.0 / rounds
    # outermost gate calls only: apply_cz is built from apply_h and apply_cnot
    gates_s = st.total_s(*GATES) - st.total_s(*GATES, caller="tableau.apply_")
    m = {
        "census.support_s": st.self_time(
            "census._group_batch_values", "census._graph_batch_values",
            "census._support_entropy_values",
        ) * per,
        "census.zeta_s": st.total_s("census._zeta_and_values") * per,
        "census.batches": st.calls("census._group_batch_values", "census._graph_batch_values") * per,
        "census.rows": st.items(
            "census._group_batch_values", "census._graph_batch_values",
            "census._support_entropy_values",
        ) * per,
        "census.merge_s": st.self_time(
            "census._vector_counts_groups", "census._vector_counts_graphs",
            "census._graph_chunk_tally",
        ) * per,
        "census.pool_s": st.total_s(POOL) * per,
        "census.canon_s": (
            st.total_s("census._perm_table", "census._canonical_values")
            + st.total_s("entropy.canonicalize", caller="census.")
        ) * per,
        "census.canon_calls": (
            st.calls("census._perm_table", "census._canonical_values")
            + st.calls("entropy.canonicalize", caller="census.")
        ) * per,
        "census.single_entropy_s": st.total_s("census.graph_entropy_values") * per,
        "census.single_entropy_calls": st.calls("census.graph_entropy_values") * per,
        "census.lc_search_s": st.total_s("census._orbit_four_star_search") * per,
        "graphs.local_complement_calls": st.calls("graphs.local_complement") * per,
        "graphs.enumerate_s": st.total_s("graphs.enumerate_graphs") * per,
        "star.search_s": st.total_s("star.find_star_partition") * per,
        "star.searches": st.calls("star.find_star_partition") * per,
        "star.hits": st.items("star.find_star_partition") * per,
        "star.partitions": st.items("star._partitions") * per,
        "star.partitions_per_hit": st.partitions_per_hit(),
        "star.block_spaces_s": st.total_s("star.block_spaces") * per,
        "entropy.mmi_tally_s": st.total_s("entropy.mmi_tally") * per,
        "entropy.mmi_tally_calls": st.calls("entropy.mmi_tally") * per,
        "entropy.canonicalize_s": st.total_s("entropy.canonicalize") * per,
        "entropy.canonicalize_calls": st.calls("entropy.canonicalize") * per,
        "entropy.entropy_vector_s": st.total_s("entropy.entropy_vector") * per,
        "tableau.entropy_calls": st.calls("tableau.entropy") * per,
        "tableau.gates_s": gates_s * per,
        "tableau.rank_vector_s": st.total_s("tableau.rank_vector") * per,
        "cli.class_representative_s": st.total_s("cli._class_representative") * per,
    }
    for fn in ("rref", "rank", "intersect"):
        m[f"gf2.{fn}_calls"] = st.calls(f"gf2.{fn}") * per
        m[f"gf2.{fn}_s"] = st.total_s(f"gf2.{fn}") * per
    m["gf2.is_distributive_calls"] = st.calls("gf2.is_distributive") * per
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_p50_ms"] = st.main_p50_ms(sub)
    return m
