"""Regenerate ``reference.json``: interp-backend digests of every
(app, iterations) pair the workloads check.

    python3 perfbench/make_reference.py

Takes a minute or two: the reference interpreter is slow, which is why
timed runs compare against stored digests instead of running it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    from repro import (build_schedule, compile_graph, execute, flatten,
                       get_target)
    from repro.apps import get_benchmark

    from oracle import (MACHINE, PIPELINE, REFERENCE_BACKEND,
                        REFERENCE_PATH, digest, ref_key)
    from workloads import reference_keys

    machine = get_target(MACHINE)
    digests = {}
    for app, iterations in reference_keys():
        start = time.perf_counter()
        graph = compile_graph(flatten(get_benchmark(app)), machine,
                              pipeline=PIPELINE).graph
        result = execute(graph, build_schedule(graph), machine=machine,
                         iterations=iterations, backend=REFERENCE_BACKEND)
        digests[ref_key(app, iterations)] = digest(result.outputs,
                                                   result.init_outputs)
        print(f"{ref_key(app, iterations)}: {len(result.outputs)} outputs, "
              f"{time.perf_counter() - start:.1f}s", flush=True)
    REFERENCE_PATH.write_text(json.dumps(
        {"machine": MACHINE, "pipeline": PIPELINE,
         "backend": REFERENCE_BACKEND, "digests": digests},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
