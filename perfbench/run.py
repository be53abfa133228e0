"""Unpaced wall-clock benchmark of the MacroSS reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each one):
``compile-short``, ``steady-long``, ``serve-mix``, ``multicore-2``.

With ``--trace 0`` the run measures three cold set-ups, each its
imports plus one set-up of the workload in a fresh interpreter (two in
``cold_setup.py`` subprocesses, then this process's own); their median
is ``setup_s``.  It then times ops for ``--seconds`` and reports the
end-to-end metrics.  Their times are reference-host times: each round of
ops, and each set-up, is scaled by the host slowdown a calibration
kernel measures around it in the same process (``hostspeed.py``); the
raw wall figures go to the results file.  With ``--trace 1`` it sets up once, times an untraced
and then a traced window of half that length each, and reports the
per-layer metrics, including the tracing overhead.  Every op's outputs
are checked against the interp reference digests in ``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every op was correct.  Provenance, failures, the span
table (traced runs) and the spans themselves go to ``perfbench/out/``.
A per-layer metric whose probe function is missing at the commit under
test is left out of ``metrics`` and named on the line before it.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the import time is part of setup_s
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Environment that would let one run warm from another or change the
#: serving transport's defaults.
ISOLATED_ENV = ("MACROSS_KERNEL_STORE", "MACROSS_SHM_THRESHOLD")
#: Cold set-ups behind setup_s: SETUP_SAMPLES - 1 in subprocesses, and
#: the one before this process's timed window.
SETUP_SAMPLES = 3
COLD_SETUP_TIMEOUT_S = 120

#: name -> unit of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "op_ms_p90": "ms", "items_per_s": "1/s", "ok_share": "share",
              "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("compile-short", "steady-long", "serve-mix", "multicore-2")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def _vm_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def peak_rss_mb():
    """Peak resident memory of this process plus its live children (the
    serving workers)."""
    return _vm_hwm_mb(os.getpid()) + sum(
        _vm_hwm_mb(child.pid) for child in multiprocessing.active_children())


def provenance(args):
    commit = None
    if (ROOT / ".git").exists():  # else git would report an enclosing repo
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": commit, "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version}


def load_program():
    """Import the program from this checkout's ``src``, with the
    environment that could warm one run from another cleared.  Returns
    an error message, or ``None``."""
    for var in ISOLATED_ENV:
        os.environ.pop(var, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program sources under {SRC}"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return f"imported repro from {repro.__file__}, not {SRC}"
    return None


def cold_setup(workload, seed):
    """Wall seconds and host slowdown of one cold set-up in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_setup.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=COLD_SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["host"]


def end_to_end(window, setup_s, rss_mb, reference=True):
    """The end-to-end metrics of one untraced window.

    With ``reference`` (the reported figures) every time is the time on
    the reference-speed host (see ``hostspeed``); without it, raw wall
    time.  ``op_ms_p50`` is the geometric mean of each op class's median
    latency (a class is an app, or a serve session size class).  Every
    workload runs its classes equally often, so with an even number of
    classes the plain median of all ops falls in the gap between two
    classes and reads the extreme latencies on either side of it.
    ``op_ms_p90`` is likewise the geometric mean of each class's
    nearest-rank 90th percentile; pooled over all ops (100 or more), the
    90th percentile sits on the edge of the second-slowest class, where
    a few ops decide it."""
    ops = window.ops
    duration_s = window.ref_s if reference else window.wall_s
    classes = by_class(ops, reference)
    failed = sum(1 for op in ops if not op.ok)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / duration_s,
        "op_ms_p50": statistics.geometric_mean(
            [statistics.median(ms) for ms in classes.values()]),
        "op_ms_p90": statistics.geometric_mean(
            [nearest_rank(ms, 90) for ms in classes.values()]),
        "items_per_s": sum(op.items for op in ops if op.ok) / duration_s,
        "ok_share": 1.0 - failed / len(ops),
        "peak_rss_mb": rss_mb,
    }


def by_class(ops, reference=True):
    """Latencies (ms), in run order, of each app or session class."""
    classes = {}
    for op in ops:
        latency = op.ref_latency_s if reference else op.latency_s
        classes.setdefault(op.tag, []).append(latency * 1e3)
    return dict(sorted(classes.items()))


def _trace_events(events):
    """Chrome ``trace_event`` records of the run's spans."""
    return [{"name": e.name, "cat": e.cat, "ph": e.ph, "ts": e.ts,
             "dur": e.dur, "pid": os.getpid(), "tid": e.tid,
             "args": {k: v for k, v in e.args.items()
                      if isinstance(v, (int, float, str, bool))}}
            for e in events]


def main(argv=None):
    args = parse_args(argv)
    import hostspeed
    # A first calibration before the program is imported, when nothing
    # of it can be running (see hostspeed); not part of set-up time.
    start = time.perf_counter()
    hostspeed.measure()
    calibration_s = time.perf_counter() - start
    error = load_program()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import layers
    import oracle
    import workloads
    from repro.obs import Tracer
    import_s = time.perf_counter() - _START - calibration_s

    try:
        reference = oracle.load_reference(oracle.REFERENCE_PATH)
        for app, iterations in workloads.reference_keys():
            oracle.require(reference, app, iterations)
    except oracle.ReferenceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    quiet = Tracer(enabled=False)
    tracer = Tracer(enabled=True) if args.trace else quiet
    workload = workloads.WORKLOADS[args.workload](args.seed, reference)
    # (wall seconds, host slowdown) of each cold set-up.
    setups, traced = [], None
    try:
        if not args.trace:
            setups += [cold_setup(args.workload, args.seed)
                       for _ in range(SETUP_SAMPLES - 1)]
        before = hostspeed.measure()
        start = time.perf_counter()
        workload.setup(tracer)
        setup_wall_s = import_s + time.perf_counter() - start
        setups.append((setup_wall_s, hostspeed.slowdown(
            (before + hostspeed.measure()) / 2)))
        if args.trace:
            # Half the time untraced, half traced: the two windows give
            # the tracing overhead, and the run lasts as long as an
            # untraced one.  Only the end-to-end p90 needs MIN_OPS.
            window = workload.window(args.seconds / 2, quiet, 1)
            traced = workload.window(args.seconds / 2, tracer, 1)
            workload.probe()
        else:
            window = workload.window(args.seconds, quiet)
        rss_mb = peak_rss_mb()
    finally:
        workload.close()

    ops = window.ops
    every_op = ops + (traced.ops if traced else [])
    failures = [op for op in every_op if not op.ok]
    setups_s = [wall for wall, _host in setups]
    setup_hosts = [host for _wall, host in setups]
    e2e = end_to_end(window, statistics.median(
        [wall / host for wall, host in setups]), rss_mb)
    record = {"provenance": provenance(args), "import_s": import_s,
              "setups_s": setups_s, "setup_hosts": setup_hosts,
              "end_to_end": e2e,
              "end_to_end_wall": end_to_end(
                  window, statistics.median(setups_s), rss_mb,
                  reference=False),
              "failed_share": len(failures) / len(every_op),
              "ops": len(ops), "window_wall_s": window.wall_s,
              "window_ref_s": window.ref_s, "round_s": window.round_s,
              "round_host": window.round_host,
              "latencies_ms": by_class(ops, reference=False),
              "failures": [(op.tag, op.error) for op in failures[:50]],
              "calibration": dict(hostspeed.stats),
              "absent": sorted(set(workload.absent))}
    if args.trace:
        events = tracer.events
        values = layers.per_layer(events, traced.ops, traced.wall_s,
                                  workload, len(ops) / window.ref_s,
                                  len(traced.ops) / traced.ref_s)
        units = dict(layers.PER_LAYER)
        record.update(per_layer=values, traced_ops=len(traced.ops),
                      traced_window_wall_s=traced.wall_s,
                      span_table=layers.span_table(events))
    else:
        values, units = e2e, END_TO_END

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(f"cold set-ups (wall s, this process's last, its import "
          f"{import_s:.3f} s): {[round(s, 3) for s in setups_s]}")
    print(f"host slowdown vs the reference host: set-ups "
          f"{[round(h, 3) for h in setup_hosts]}, window median "
          f"{statistics.median(window.round_host):.3f}; calibration kernels "
          f"{hostspeed.stats}")
    print(f"window: {len(ops)} ops in {window.wall_s:.2f} s wall, "
          f"{window.ref_s:.2f} s on the reference host, "
          f"{len(failures)} failed of {len(every_op)} attempted "
          f"(failed_share {record['failed_share']:.4f})")
    print(f"op latency (reference host, geomean over classes): p50 "
          f"{e2e['op_ms_p50']:.3f} ms, p90 {e2e['op_ms_p90']:.3f} ms "
          f"over {len(ops)} ops")
    print("class medians (wall ms): " + ", ".join(
        f"{tag} {statistics.median(ms):.2f}"
        for tag, ms in record["latencies_ms"].items()))
    for op in failures[:5]:
        print(f"FAILED {op.tag}: {op.error}")
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        stem.with_suffix(".spans.json").write_text(
            json.dumps({"traceEvents": _trace_events(events)}))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))

    if record["absent"]:
        print("absent (probe function missing): "
              + ", ".join(record["absent"]))
    print(json.dumps({
        "correct": not failures, "attempted": len(every_op),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
