"""One timed step of the benchmark, in this fresh process.

Usage: python3 child.py '<spec JSON>'

The spec holds ``src`` (the directory that contains the pricedir
package), ``trace_out`` (a path for the spans, or null for an untraced
run) and either

- ``config``: run ``pricedir.pipeline.run_pipeline`` once with a config
  document for ``config_from_dict``.  Config paths are relative to the
  working directory, so that ``report.json`` does not depend on where
  the run happens; or
- ``setup``: generate a workload's inputs (``workload``, ``seed``,
  ``out``), as a user pays for it with ``pricedir synth``.

Prints one JSON line with the wall and CPU time of the step, the peak
resident set of this process and, for a pipeline run, the outcome of
every company.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from pricedir.config import config_from_dict
    from pricedir.pipeline import run_pipeline
    from tracing import Tracer
    from workloads import Workload, build_inputs

    if "setup" in spec:
        setup = spec["setup"]
        workload = Workload(**setup["workload"])
        name, layer = "setup", "synth"

        def step():
            build_inputs(workload, setup["seed"], Path(setup["out"]))
    else:
        cfg = config_from_dict(spec["config"])
        name, layer = "run_pipeline", "pipeline"

        def step():
            return run_pipeline(cfg)

    tracer = Tracer().install() if spec["trace_out"] else None
    started, cpu_started = time.perf_counter(), time.process_time()
    if tracer:
        with tracer.span(name, layer):
            result = step()
    else:
        result = step()
    wall_s, cpu_s = time.perf_counter() - started, time.process_time() - cpu_started
    if tracer:
        tracer.write(spec["trace_out"])
    record = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if result is not None:
        record["status"] = {c["ticker"]: c["status"] for c in result["companies"]}
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
