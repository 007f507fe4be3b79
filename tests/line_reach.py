"""Line reach: every executable line of `src/stabmmi` runs under Tier-1.

Runs pytest in this process over `tests/` while recording which lines of
`src/stabmmi` execute, and compares them with the `co_lines()` of every code
object in each module.  It fails if pytest fails, if a line outside ALLOW
never ran, or if an ALLOW entry names no line.  Run from anywhere:

    python tests/line_reach.py

On Python 3.12 and later the lines come from `sys.monitoring` LINE events,
and each location is disabled after its first event, so the run costs about
as much as Tier-1.  Older Pythons fall back to `sys.settrace`, which fires
on every Python call: minutes, so the check is not part of Tier-1.  Only
this process is traced; code that runs only in a subprocess must be allowed.
It takes no arguments: the allowlist holds only for the whole suite.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stabmmi"

# (module file, stripped source line, or None for every line): what only
# `python -m stabmmi` or the `stabmmi` console script runs, in a subprocess
ALLOW = [
    ("__main__.py", None),
    ("cli.py", "sys.exit(main())"),
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of every code object in `path`."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def start_recording(prefix: str, hits: set[tuple[str, int]]):
    """Record (file, line) of each line run in files under `prefix`; returns
    the function that stops recording."""
    if hasattr(sys, "monitoring"):
        mon = sys.monitoring
        tool = mon.COVERAGE_ID

        def on_line(code, line):
            if code.co_filename.startswith(prefix):
                hits.add((code.co_filename, line))
            return mon.DISABLE

        mon.use_tool_id(tool, "line_reach")
        mon.register_callback(tool, mon.events.LINE, on_line)
        mon.set_events(tool, mon.events.LINE)

        def stop():
            mon.set_events(tool, 0)
            mon.register_callback(tool, mon.events.LINE, None)
            mon.free_tool_id(tool)

        return stop

    # lines of each traced code object not yet run; a code object whose
    # lines have all run is not traced again
    left: dict[types.CodeType, set[int]] = {}

    def on_call(frame, _event, _arg):
        code = frame.f_code
        if code not in left:
            ours = code.co_filename.startswith(prefix)
            left[code] = {line for _s, _e, line in code.co_lines() if line} if ours else set()
        todo = left[code]
        if not todo:
            return None

        def on_line(frame, event, _arg):
            if event == "line":
                todo.discard(frame.f_lineno)
                hits.add((code.co_filename, frame.f_lineno))
            return on_line

        return on_line

    sys.settrace(on_call)
    return lambda: sys.settrace(None)


def main() -> int:
    import pytest

    if "stabmmi" in sys.modules:
        raise RuntimeError("stabmmi was imported before recording started")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    hits: set[tuple[str, int]] = set()
    stop = start_recording(str(PACKAGE) + os.sep, hits)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        stop()

    total = unreached = 0
    allowed = dict.fromkeys(ALLOW, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {line for file, line in hits if file == str(path)}):
            source = text[line - 1].strip()
            entry = next((a for a in ALLOW if a[0] == path.name and a[1] in (None, source)), None)
            if entry is not None:
                allowed[entry] += 1
                continue
            unreached += 1
            print(f"unreached: {path.relative_to(ROOT)}:{line}: {source}")
    stale = [entry for entry, count in allowed.items() if not count]
    for entry in stale:
        print(f"allowlist entry matches no unreached line: {entry}")
    ran = total - unreached - sum(allowed.values())
    print(
        f"line reach: {ran} of {total} executable lines of src/stabmmi ran; "
        f"{sum(allowed.values())} allowed, {unreached} unreached; pytest exit {int(status)}"
    )
    return 1 if status or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
