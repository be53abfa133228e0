"""One cold set-up of a workload, in a fresh interpreter.

    python3 perfbench/cold_setup.py WORKLOAD SEED

Prints, as JSON, the wall seconds from this script's first line to the
end of one set-up of the workload (``setup_s``) and the host slowdown
measured around it in this process (``host``, see ``hostspeed``).  The
set-up time covers the imports of the benchmark and the program and
everything the set-up does (compiles, kernel builds, pool spawn,
warm-up), with no cache of an earlier set-up to reuse; the calibrations
are left out of it.  ``run.py`` runs this a few times and reports the
median, with its own cold set-up, as ``setup_s``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402 - the import time is part of the set-up
import sys  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402


def main(argv):
    name, seed = argv
    start = time.perf_counter()
    before = hostspeed.measure()
    calibration_s = time.perf_counter() - start
    error = run.load_program()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import oracle
    import workloads
    from repro.obs import Tracer
    workload = workloads.WORKLOADS[name](
        int(seed), oracle.load_reference(oracle.REFERENCE_PATH))
    try:
        workload.setup(Tracer(enabled=False))
        seconds = time.perf_counter() - _START - calibration_s
        host = hostspeed.slowdown((before + hostspeed.measure()) / 2)
    finally:
        workload.close()
    print(json.dumps({"setup_s": seconds, "host": host}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
