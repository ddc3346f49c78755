"""One fresh-interpreter pass of the experiment CLI (the ``figure-cli`` workload).

Usage: ``python perfbench/cli_pass.py OUT.json [--trace] [--host-speed] -- CLI-ARGS...``
with ``PERFBENCH_T_SPAWN`` set to the parent's ``time.perf_counter()`` at
launch.  It does what ``python -m repro.experiments CLI-ARGS`` does — import
the runner and call ``main`` — and records when the import finished
(``setup_s``), the exit code and the peak RSS.  With ``--trace`` the layer
entry points are wrapped first and the span summary is written too.  With
``--host-speed`` the host speed is probed right after the import, which
puts ``setup_s`` at the reference speed (``raw_setup_s`` is as measured),
and sampled while ``main`` runs (:mod:`perfbench.hostspeed`); all the
samples are written too.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import hostspeed  # noqa: E402
from perfbench import trace as tracing  # noqa: E402


def main(argv: list[str]) -> int:
    out_path, options = argv[0], argv[1: argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]
    tracer = tracing.Tracer() if "--trace" in options else None

    import repro.experiments.runner as runner

    if tracer is not None:
        tracing.install(tracer)
    setup_s = time.perf_counter() - float(os.environ["PERFBENCH_T_SPAWN"])
    host_speed = "--host-speed" in options
    probe = hostspeed.probe() if host_speed else []
    root = tracer.begin("workload.pass") if tracer is not None else None
    try:
        with hostspeed.Sampler(enabled=host_speed) as sampler:
            code = runner.main(cli_args)
    finally:
        if root is not None:
            tracer.end(root)
    result = {
        "setup_s": setup_s * hostspeed.speed_factor(probe),
        "raw_setup_s": setup_s,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_samples": probe + sampler.samples,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(out_path).write_text(json.dumps(result))
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
