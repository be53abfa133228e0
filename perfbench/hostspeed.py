"""Host-speed calibration of the benchmark's wall-clock figures.

The benchmark runs on shared machines whose per-core speed drifts by up
to 2x over minutes (other tenants load the same physical cores, or take
them from the virtual CPUs the benchmark runs on).  A run of a few tens of
seconds cannot average that out.  So every timed round of a workload is
bracketed by a fixed calibration kernel that touches nothing of the
program under test: a stretch of pure-Python interpreter work plus small
and medium numpy operations, the same mix the benchmark's ops spend their
time in.  The kernel runs once on each CPU the benchmark may use, since
at any moment the CPUs of a shared host run at speeds up to 30% apart
and a round's work runs on any of them.  Its mean wall time divided by
:data:`REFERENCE_S` (its median on the host the benchmark was defined
on) is the host's slowdown factor at that moment, and a round's times
divided by it are the times the round would have taken on that
reference host.

The kernel must measure the host and not the program.  Work the program
leaves running between rounds (serving workers, pump threads, core
threads) must not slow it, or that work would be divided out of the
program's own times.  So :func:`measure` reads the CPU time that every
other thread of this process and every live child process used while
the kernel ran.  When that is more than :data:`QUIET_SHARE` of the
kernel's wall time, the kernel is retried after a short wait; when the
program never goes quiet, the last quiet measurement stands in (the
first one is taken before the program is imported), so background work
is never credited.

The end-to-end metrics report these reference-host times; the raw wall
times stay in the results file beside them.  Code under test never runs
inside the calibration, so a faster program reads faster either way.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Median wall seconds of :func:`calibration_kernel` on the 2-CPU Xeon
#: host the benchmark was defined on, with the host quiet.
REFERENCE_S = 0.0120

#: Largest CPU time of the rest of the benchmark, as a share of the
#: kernel's wall time, under which a calibration counts as quiet.
QUIET_SHARE = 0.05
RETRIES = 5
RETRY_WAIT_S = 0.02

_SMALL = np.linspace(0.0, 1.0, 64)
_MEDIUM = np.linspace(0.0, 1.0, 1 << 16)

#: Calibration kernels run, and those the rest of the benchmark was busy
#: through; written to each results file.
stats: Dict[str, int] = {"kernels": 0, "busy": 0, "stood_in": 0}
_last_quiet: Optional[float] = None


def calibration_kernel() -> float:
    """Fixed work, independent of the program under test."""
    table = {}
    acc = 0
    for i in range(40000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    small = _SMALL
    for _ in range(1200):
        small = np.add(small * 0.5, 1.0)[::-1].copy()
    medium = _MEDIUM
    for _ in range(24):
        medium = medium * 1.0001 + 1.0
    return acc + float(small[0]) + float(medium[-1])


def _children_cpu_s() -> float:
    """CPU seconds used so far by every thread of every live child."""
    total = 0
    for child in multiprocessing.active_children():
        for task in Path(f"/proc/{child.pid}/task").glob("*/schedstat"):
            try:
                total += int(task.read_text().split()[0])
            except (OSError, ValueError, IndexError):
                pass
    return total / 1e9


def _kernel() -> Tuple[float, float]:
    """Mean wall seconds of one kernel pinned to each CPU in turn, and
    the CPU seconds the rest of the benchmark (other threads, child
    processes) used meanwhile, as a share of the kernels' wall time."""
    cpus = os.sched_getaffinity(0)
    children = _children_cpu_s()
    process = time.process_time()
    walls: List[float] = []
    own_cpu = 0.0
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})  # this thread only
            wall, cpu_time = time.perf_counter(), time.thread_time()
            calibration_kernel()
            walls.append(time.perf_counter() - wall)
            own_cpu += time.thread_time() - cpu_time
    finally:
        os.sched_setaffinity(0, cpus)
    others = (time.process_time() - process - own_cpu
              + _children_cpu_s() - children)
    return statistics.fmean(walls), others / sum(walls)


def measure(reps: int = 3) -> float:
    """Median of ``reps`` quiet calibrations (mean wall seconds of the
    kernel over the CPUs)."""
    global _last_quiet
    times: List[float] = []
    for _ in range(reps):
        for _attempt in range(RETRIES):
            own, others_share = _kernel()
            stats["kernels"] += 1
            if others_share <= QUIET_SHARE:
                times.append(own)
                break
            stats["busy"] += 1
            time.sleep(RETRY_WAIT_S)
        else:
            stats["stood_in"] += 1
            times.append(own if _last_quiet is None else _last_quiet)
            continue
        _last_quiet = own
    return statistics.median(times)


def slowdown(calibration_s: float) -> float:
    """Host slowdown factor given one calibration measurement."""
    return calibration_s / REFERENCE_S
