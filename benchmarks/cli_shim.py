"""Starts `stabmmi` from the checkout's source tree, as the installed
`stabmmi` command would:

    python3 benchmarks/cli_shim.py <stabmmi arguments>

When STABMMI_BENCH_TRACE_DIR is set, it first installs the benchmark's
tracing wrappers, and writes the invocation's trace into that directory.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

trace_dir = os.environ.get("STABMMI_BENCH_TRACE_DIR")
if trace_dir:
    import json

    import tracing

    tracer = tracing.Tracer().install()

from stabmmi.cli import main  # noqa: E402

if __name__ == "__main__":
    if not trace_dir:
        sys.exit(main(sys.argv[1:]))
    try:
        code = main(sys.argv[1:])
    finally:
        name = f"{time.time_ns()}-{os.getpid()}.json"
        Path(trace_dir, name).write_text(json.dumps(tracer.dump()))
    sys.exit(code)
