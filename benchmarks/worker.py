"""One workload process: set up, then run whole rounds for a given time.

    python3 benchmarks/worker.py --role setup|body --workload W --seed S
        --seconds T --jobs J --trace 0|1 --workdir DIR --out FILE

`setup` imports stabmmi, builds the inputs and reports how long that took.
`body` does the same, then runs the closed loop and writes per-operation
latencies, the outputs of the first round, resource usage and, when
traced, the trace.  run.py starts both in fresh interpreters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=["setup", "body"], required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import stabmmi  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    trace_dir = args.workdir / "traces"
    if args.trace and args.workload == "cli":
        trace_dir.mkdir(exist_ok=True)
        env["STABMMI_BENCH_TRACE_DIR"] = str(trace_dir)
    wl = workloads.build(args.workload, args.seed, args.jobs, args.workdir, env)
    setup_s = time.perf_counter() - start
    result = {"import_s": import_s, "setup_s": setup_s}
    if args.role == "body":
        result.update(run_body(wl, args, trace_dir))
    args.out.write_text(json.dumps(result))
    return 0


def run_body(wl, args, trace_dir: Path) -> dict:
    import tracing

    tracer = tracing.Tracer().install() if args.trace and args.workload != "cli" else None
    latencies: list[list] = []  # [label, seconds, ok]
    round_s: list[float] = []
    first: list | None = None
    first_text = None
    identical = True
    errors: list[str] = []
    body_start = time.perf_counter()
    while True:
        outputs = []
        round_start = time.perf_counter()
        for op in wl.ops:
            if op.prepare is not None:
                op.prepare()
            t0 = time.perf_counter()
            try:
                value = op.call()
                ok = True
            except Exception:  # a failing operation is counted, not fatal
                value, ok = None, False
                errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
            latency = time.perf_counter() - t0
            out = op.record(value) if ok else None
            if isinstance(out, dict) and "ok" in out:
                ok = out["ok"]
            latencies.append([op.label, latency, ok])
            outputs.append(out)
        round_s.append(time.perf_counter() - round_start)
        text = json.dumps(outputs, sort_keys=True)
        if first is None:
            first, first_text = outputs, text
        elif text != first_text:
            identical = False
        elapsed = time.perf_counter() - body_start
        # start another round only if it is expected to end in time
        if elapsed + round_s[-1] > args.seconds:
            break
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "rounds": len(round_s),
        "round_s": round_s,
        "latencies": latencies,
        "items_per_round": wl.items_per_round,
        "outputs": first,
        "meta": [op.meta for op in wl.ops],
        "labels": [op.label for op in wl.ops],
        "identical": identical,
        "errors": errors,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (self_ru.ru_maxrss + child_ru.ru_maxrss) / 1024,
        "cpu_s": self_ru.ru_utime + self_ru.ru_stime,
        "children_cpu_s": child_ru.ru_utime + child_ru.ru_stime,
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
    elif args.trace:
        dumps = [json.loads(f.read_text()) for f in sorted(trace_dir.glob("*.json"))]
        out["trace"] = tracing.merge(dumps)
    return out


if __name__ == "__main__":
    sys.exit(main())
