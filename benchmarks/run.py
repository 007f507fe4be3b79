"""The stabmmi benchmark: one workload per invocation, from the checkout root.

    python3 benchmarks/run.py --workload state-census|graph-census|cli
        --seed N --seconds T --trace 0|1 [--out FILE]

Set-up is timed in fresh interpreters, three before and three after the
body, so that their median spans the run.  One fresh worker runs whole
rounds for T seconds.  With --trace 1 a plain worker and a traced worker
each get T/2 seconds, and the per-layer metrics come from the traced one.  Every output is checked against the benchmark's
own reference computations.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; a fuller record with the
machine and versions is written to --out (default .bench_results/).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3  # set-ups timed before the body, and as many after it
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "star.partitions_per_hit":
        return "partitions/hit"
    return "count"


class BenchError(Exception):
    pass


def cores() -> int:
    return len(os.sched_getaffinity(0))


def run_worker(role: str, args, seconds: float, trace: int, workdir: Path, deadline: float) -> dict:
    """Runs worker.py in a fresh interpreter and its own process group."""
    out = workdir / f"{role}-{trace}-{time.time_ns()}.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--jobs", str(args.jobs), "--trace", str(trace), "--workdir", str(workdir / role),
        "--out", str(out),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{role} worker did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not out.exists():
        raise BenchError(f"{role} worker exited with code {code}")
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# output checks


def check_outputs(workload: str, body: dict) -> tuple[list[str], int]:
    """(errors, reported counterexamples that fail re-verification) for one round."""
    outputs, metas = body["outputs"], body["meta"]
    if workload == "state-census":
        rows = [o for o in outputs if o is not None]
        recomputed = None
        if any(r["n"] == 4 for r in rows):
            from stabmmi.census import enumerate_stabilizer_groups

            groups = [(t.x.rows, t.z.rows) for t in enumerate_stabilizer_groups(4)]
            recomputed = checks.census_row_from_groups(4, groups)
        return checks.check_state_census(rows, recomputed), 0
    if workload == "graph-census":
        return [e for o in outputs if o is not None for e in checks.check_graph_census(o)], 0
    return checks.check_cli(metas, outputs)


def comparable(outputs: list) -> str:
    """Outputs without stderr, whose tracebacks name the tracing wrappers."""
    return json.dumps(
        [{k: v for k, v in o.items() if k != "stderr"} if isinstance(o, dict) else o for o in outputs],
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# metrics


def counts(body: dict, unconfirmed: int) -> tuple[int, int]:
    attempted = len(body["latencies"])
    failed = sum(1 for _label, _s, ok in body["latencies"] if not ok)
    return attempted, failed + unconfirmed * body["rounds"]


def end_to_end(body: dict, setup_s: float) -> dict[str, float]:
    wall_s = statistics.median(body["round_s"])
    return {
        "wall_s": wall_s,
        "items_per_s": body["items_per_round"] / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": body["peak_rss_mb"],
    }


def invocation_p50_ms(body: dict) -> float:
    """Median latency of the invocations that did not fail.  Recorded, but
    not in BENCHMARK.json: on the reference machine its spread over ten
    seeds reached the largest bound allowed (see README)."""
    return statistics.median(s for _label, s, ok in body["latencies"] if ok) * 1000


def op_medians(body: dict) -> dict[str, float]:
    """Median latency per operation label, in ms."""
    by_label: dict[str, list[float]] = {}
    for label, seconds, _ok in body["latencies"]:
        by_label.setdefault(label, []).append(seconds * 1000)
    return {label: statistics.median(v) for label, v in by_label.items()}


def per_layer(plain: dict, traced: dict, import_s: float) -> dict[str, float]:
    rounds = traced["rounds"]
    m = tracing.layer_metrics(traced["trace"], rounds)
    m["cli.import_s"] = import_s
    m["proc.cpu_s"] = traced["cpu_s"] / rounds
    m["proc.children_cpu_s"] = traced["children_cpu_s"] / rounds
    m["trace.overhead_s"] = statistics.median(traced["round_s"]) - statistics.median(plain["round_s"])
    return m


def provenance(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": args.jobs,
        "cores": cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "machine": platform.machine(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--jobs", type=int, default=None, help="default: core count, at most 8")
    p.add_argument("--out", type=Path, help="result file (default .bench_results/...)")
    args = p.parse_args(argv)
    args.jobs = args.jobs or min(cores(), 8)

    if not (ROOT / "src" / "stabmmi" / "__init__.py").is_file():
        print(f"benchmark: no stabmmi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [run_worker("setup", args, 0, 0, workdir, deadline) for _ in range(SETUP_REPS)]
        if args.trace:
            bodies = [
                run_worker("body", args, args.seconds / 2, 0, workdir, deadline),
                run_worker("body", args, args.seconds / 2, 1, workdir, deadline),
            ]
        else:
            bodies = [run_worker("body", args, args.seconds, 0, workdir, deadline)]
        setups += [run_worker("setup", args, 0, 0, workdir, deadline) for _ in range(SETUP_REPS)]
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    errors, unconfirmed = check_outputs(args.workload, bodies[0])
    attempted = failed = 0
    for body in bodies:
        a, f = counts(body, unconfirmed)
        attempted += a
        failed += f
        if not body["identical"]:
            errors.append("a later round's outputs differ from the first round's")
        for e in body["errors"]:  # these operations count as failed
            print(f"operation failed: {e}", file=sys.stderr)
    if args.trace and comparable(bodies[1]["outputs"]) != comparable(bodies[0]["outputs"]):
        errors.append("traced outputs differ from untraced outputs")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)
    if args.trace:
        values = per_layer(bodies[0], bodies[1], import_s)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(bodies[0], setup_s)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    ungated = {}
    if args.workload == "cli" and not args.trace:
        ungated["latency_p50_ms"] = {"value": invocation_p50_ms(bodies[0]), "unit": "ms"}
    correct = not errors

    record = {
        **provenance(args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "round_s": [b["round_s"] for b in bodies],
        "errors": errors,
        "failed_operations": [e for b in bodies for e in b["errors"]],
        "absent": bodies[-1].get("trace", {}).get("absent", []),
        "op_ms": op_medians(bodies[0]),
        "metrics": {**metrics, **ungated},
        "ungated": sorted(ungated),
    }
    out = args.out or ROOT / ".bench_results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
