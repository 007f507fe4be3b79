"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 benchmarks/compare.py PARENT CHANGE

PARENT and CHANGE are result files written by run.py, or directories of
them.  Runs are grouped by workload and trace mode, and paired in the order
of their seeds.  For each metric it prints both medians and quartiles, the
share of pairs the change won (ties count for neither), and a verdict:

- improved: at least ten pairs, the change won at least 9 pairs in 10, and
  the medians differ by more than the parent's quartile spread;
- unresolved: the parent's quartile spread is wider than the metric's bound,
  and not every run of the change beats every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound (per-layer metrics have no bound: worse is the mirror of improved);
- unchanged: none of these.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # fewer pairs never give "improved"


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: dict[tuple[str, int], list[dict]] = {}
    for f in files:
        rec = json.loads(f.read_text())
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for runs in groups.values():
        runs.sort(key=lambda r: (r["seed"], r["time"]))
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[float, str]:
    """(share of pairs won by the change, verdict)."""
    sign = -1.0 if better == "lower" else 1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q1, med_p, q3 = quartiles(parent)
    spread = q3 - q1
    gain = sign * (statistics.median(change) - med_p)  # > 0: the change is better
    share = wins / len(pairs) if pairs else 0.0
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > spread:
        return share, "improved"
    if bound is None:
        if len(pairs) >= MIN_PAIRS and losses >= 0.9 * len(pairs) and -gain > spread:
            return share, "worse"
        return share, "unchanged"
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound * abs(med_p) and not all_better:
        return share, "unresolved"
    if -gain > bound * abs(med_p):
        return share, "worse"
    return share, "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = (load(Path(a)) for a in argv)
    for key in sorted(set(parent) & set(change)):
        runs_p, runs_c = parent[key], change[key]
        workload, trace = key
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}): "
              f"{len(runs_p)} parent runs, {len(runs_c)} change runs")
        for side, runs in (("parent", runs_p), ("change", runs_c)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            info = {k: sorted({str(r[k]) for r in runs}) for k in ("commit", "cores", "jobs", "python", "numpy")}
            print(f"  {side}: {failed}/{attempted} operations failed; {info}")
        print(f"  {'metric':32s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}  won  verdict")
        for name in runs_p[0]["metrics"]:
            if name not in runs_c[0]["metrics"]:
                continue
            meta = declared.get(name, {"better": "lower"})
            a = [r["metrics"][name]["value"] for r in runs_p]
            b = [r["metrics"][name]["value"] for r in runs_c]
            share, word = verdict(a, b, meta["better"], meta.get("bound"))
            fmt = "/".join(f"{v:.4g}" for v in quartiles(a))
            fmt_c = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"  {name:32s} {fmt:>32s} {fmt_c:>32s}  {share:4.0%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
