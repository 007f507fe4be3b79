"""Mutation table: deliberate faults that the test suite must catch.

Each entry names one fault as a single text replacement in one file under
`src/`, and the test paths that must fail under it.  The runner copies
`src/` and `tests/` into a temporary directory, makes the replacement there
and runs `pytest -x` on the entry's test paths under a timeout; a failing
run or a timeout kills the mutant.  Run from the repository root:

    python tests/mutants.py

It prints one line per entry and exits 1 if any mutant survives.  A
survivor is a gap in the tests, never a reason to drop or weaken its entry.
`test_mutants.py` checks in Tier-1 that each entry's old text occurs exactly
once in its file, so a change that moves mutated code updates the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

Mutant = namedtuple("Mutant", "name file old new tests")

CENSUS = "src/stabmmi/census.py"
TEST_CENSUS = "tests/test_census.py"
TEST_GOLDEN = "tests/test_golden.py"
TEST_MMI = "tests/test_mmi.py"

MUTANTS = [
    Mutant(
        "subset sums skip the last level",
        CENSUS,
        "    for k in range(n):\n",
        "    for k in range(n - 1):\n",
        [TEST_CENSUS, TEST_MMI],
    ),
    Mutant(
        "supports without the X-part",
        CENSUS,
        "    supports |= np.arange(size, dtype=np.int32)[:, None]\n",
        "",
        [TEST_CENSUS, TEST_MMI],
    ),
    Mutant(
        "bincount slot without the batch offset",
        CENSUS,
        "    supports += np.arange(batch, dtype=np.int32)\n",
        "",
        [TEST_CENSUS, TEST_MMI],
    ),
    Mutant(
        "exchange walk stops after one sweep",
        CENSUS,
        "    while not np.array_equal(swept := _sweep(label, moves), label):\n"
        "        label = swept\n"
        "    return label\n",
        "    return _sweep(label, moves)\n",
        [TEST_CENSUS],
    ),
    Mutant(
        "one pointer jump per sweep",
        CENSUS,
        "    while not np.array_equal(jumped := label.take(label), label):\n"
        "        label = jumped\n"
        "    return label\n",
        "    return label.take(label)\n",
        [TEST_CENSUS],
    ),
    Mutant(
        "each label class its own vector",
        CENSUS,
        "    _keys, first, inverse = np.unique("
        "_row_keys(rows), return_index=True, return_inverse=True)\n",
        "    first = inverse = np.arange(len(rows))\n",
        [TEST_CENSUS, TEST_GOLDEN],
    ),
    Mutant(
        "least row by first-seen index",
        CENSUS,
        "    np.minimum.at(least, label, rank)\n",
        "    np.minimum.at(least, label, np.arange(len(firsts)))\n",
        [TEST_CENSUS],
    ),
    Mutant(
        "one shift group dropped from the edge swap",
        CENSUS,
        "    for shift, group in groups.items():\n",
        "    for shift, group in list(groups.items())[1:]:\n",
        [TEST_CENSUS],
    ),
    Mutant(
        "group weight 2^(n-d)*2^d",
        CENSUS,
        "[(1 << (n - k)) * 3**k for k in range(n + 1)]",
        "[(1 << (n - k)) * 2**k for k in range(n + 1)]",
        [TEST_CENSUS],
    ),
    Mutant(
        "MMI sign flipped",
        CENSUS,
        "    return np.sign(s, out=s)\n",
        "    return -np.sign(s)\n",
        ["tests/test_entropy.py"],
    ),
    Mutant(
        "vec built by searchsorted (intp)",
        CENSUS,
        "    vec = root_vec.take(label)\n",
        "    vec = np.argsort(order)[inverse][np.searchsorted(roots, label)]\n",
        [TEST_CENSUS],
    ),
    Mutant(
        "vec as intp",
        CENSUS,
        "root_vec = np.empty(len(label), dtype=np.int32)",
        "root_vec = np.empty(len(label), dtype=np.intp)",
        [TEST_CENSUS],
    ),
    Mutant(
        "canonical row is the class head",
        CENSUS,
        "    canon = least[heads]\n",
        "    canon = heads\n",
        [TEST_CENSUS],
    ),
    Mutant(
        "satisfy bucket needs every instance",
        CENSUS,
        "bucket = np.where(fails, 2, (c.signs > 0).any(axis=-1)[c.cls])",
        "bucket = np.where(fails, 2, (c.signs > 0).all(axis=-1)[c.cls])",
        [TEST_CENSUS],
    ),
    Mutant(
        "failing vectors counted per class",
        CENSUS,
        "len(c.heads), int(fails.sum()))",
        "len(c.heads), int((c.signs < 0).any(axis=-1).sum()))",
        [TEST_CENSUS],
    ),
    Mutant(
        "four-star members by one-sweep label",
        CENSUS,
        "        members = by_row[ends[i] - c.counts[i] : ends[i]]\n",
        "        members = np.flatnonzero(_lc_orbits(n)[1] == c.firsts[i])\n",
        [TEST_CENSUS, TEST_GOLDEN],
    ),
    Mutant(
        "fail flags indexed by class id",
        CENSUS,
        "roots[~fails[c.vec.take(roots)]]",
        "roots[~fails[c.cls[c.vec.take(roots)]]]",
        [TEST_CENSUS],
    ),
    Mutant(
        "counterexamples list only the class root",
        CENSUS,
        "np.isin(label, hits)",
        "np.isin(np.arange(len(label)), hits)",
        [TEST_CENSUS],
    ),
    Mutant(
        "graph6 without padding",
        "src/stabmmi/graphs.py",
        "    pad = -bits % 6\n",
        "    pad = 0\n",
        ["tests/test_graphs.py"],
    ),
    Mutant(
        "claw test ignores the edge between two leaves",
        "src/stabmmi/graphs.py",
        "free & ~g.adj[w] & -2 << w",
        "free & -2 << w",
        ["tests/test_graphs.py"],
    ),
    Mutant(
        "no symmetry check in Graph",
        "src/stabmmi/graphs.py",
        "if ((row >> w) & 1) != ((adj[w] >> v) & 1):",
        "if False:",
        ["tests/test_graphs.py"],
    ),
    Mutant(
        "witness takes the largest leaf",
        "src/stabmmi/star.py",
        "(leaf & -leaf).bit_length()",
        "leaf.bit_length()",
        ["tests/test_star.py"],
    ),
    Mutant(
        "class listing reversed",
        "src/stabmmi/cli.py",
        "sorted(result.classes.items())",
        "sorted(result.classes.items(), reverse=True)",
        [TEST_GOLDEN],
    ),
    Mutant(
        "scan report without its trailing newline",
        "src/stabmmi/cli.py",
        'json.dumps(report, sort_keys=True, indent=1) + "\\n"',
        "json.dumps(report, sort_keys=True, indent=1)",
        [TEST_GOLDEN],
    ),
]


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply `mutant` to a copy of `src/` and `tests/`; whether its tests
    killed it, and the last line of their output."""
    with tempfile.TemporaryDirectory(prefix="stabmmi-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        path = Path(tmp, mutant.file)
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text is not in {mutant.file} exactly once")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        try:
            proc = subprocess.run(
                argv, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
        lines = proc.stdout.strip().splitlines() or ["(no output)"]
        return proc.returncode != 0, lines[-1]


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        killed, last = run(mutant)
        survivors += not killed
        elapsed = time.perf_counter() - start
        print(f"{'killed' if killed else 'SURVIVED'}  {elapsed:5.1f} s  {mutant.name}: {last}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
