"""``python -m repro.service`` with the layer entry points wrapped in spans.

Usage: ``python perfbench/serve_traced.py TRACE.json -- SERVICE-ARGS...``.
Runs the service's own ``main`` until SIGINT, then writes the span summary
(decode, apply, flush, the protocols underneath, and the peak queue depth
seen at each enqueue) to ``TRACE.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import trace as tracing  # noqa: E402


def main(argv: list[str]) -> int:
    trace_path, service_args = argv[0], argv[argv.index("--") + 1:]
    tracer = tracing.Tracer()
    import repro.service.__main__ as service_main

    tracing.install(tracer)
    try:
        return service_main.main(service_args)
    finally:
        Path(trace_path).write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
