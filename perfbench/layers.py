"""Per-layer metrics of a traced run.

Times come from spans: the benchmark's own spans around each call into a
layer, and the spans ``compile_graph`` and ``execute`` already record
when handed a tracer.  Counts come from span arguments (attached at the
same call boundaries), from served session results, and from the
workload's direct probes.  A metric whose layer the workload does not
exercise reads 0; one whose probe function is missing at the commit
under test is absent: left out of the result, not read as 0.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from workloads import (MULTICORE_APPS, SERVE_CLASSES, SERVE_WORKERS,
                       STEADY_LONG, Op)

#: Span names of the Algorithm-1 passes (``repro.simd.PASS_NAMES`` when
#: the benchmark was defined); fixed here because they name metrics.
PASS_NAMES: Tuple[str, ...] = (
    "prepass.analysis", "segments.horizontal", "segments.vertical",
    "vertical.fuse", "repetition.adjust", "single_actor.vectorize",
    "horizontal.apply", "tape.optimize")


def _per_layer() -> List[Tuple[str, str]]:
    metrics = [("frontend.flatten_ms", "ms"), ("passes.compile_graph_ms", "ms")]
    metrics += [(f"passes.{name}_ms", "ms") for name in PASS_NAMES]
    metrics += [("passes.actors_out", "count"), ("codegen.emit_cpp_ms", "ms"),
                ("codegen.cpp_kb", "KiB"), ("schedule.build_schedule_ms", "ms"),
                ("runtime.setup_ms", "ms"), ("runtime.init_ms", "ms"),
                ("runtime.steady_ms", "ms"),
                ("runtime.kernel_cache_hit_ratio", "ratio"),
                ("runtime.vector.batched_share", "share")]
    for app in STEADY_LONG:
        metrics += [(f"runtime.steady_ms.{app}", "ms"),
                    (f"runtime.setup_ms.{app}", "ms"),
                    (f"runtime.vector.fallback_actors.{app}", "count"),
                    (f"runtime.vector.batched_share.{app}", "share")]
    metrics.append(("runtime.tape.degraded_actors", "count"))
    for cls in SERVE_CLASSES:
        metrics += [(f"serve.busy_ms_p50.{cls}", "ms"),
                    (f"serve.overhead_ms_p50.{cls}", "ms")]
    for cls in SERVE_CLASSES:
        metrics += [(f"serve.encode_ms.{cls}", "ms"),
                    (f"serve.decode_ms.{cls}", "ms")]
    metrics += [("serve.shm_roundtrip_ms.large", "ms"),
                ("serve.graph_cache_hit_ratio", "ratio"),
                ("serve.kernel_cache_hit_ratio", "ratio"),
                ("serve.worker_busy_share", "share"),
                ("serve.overloads", "count"), ("serve.requeued", "count"),
                ("serve.leaked_segments", "count"),
                ("plan.build_plan_context_ms", "ms"), ("plan.partition_ms", "ms"),
                ("multicore.core_steady_ms_max", "ms"),
                ("multicore.core_balance", "ratio"),
                ("multicore.channel_stalls", "count"),
                ("multicore.cut_tapes", "count")]
    metrics += [(f"multicore.vs_1core.{app}", "ratio")
                for app in MULTICORE_APPS]
    metrics.append(("trace_overhead_share", "share"))
    return metrics


#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = _per_layer()

_CORE_STEADY = re.compile(r"core\d+\.steady$")


def span_table(events: Iterable[Any]) -> Dict[str, Dict[str, float]]:
    """``name -> calls, total_ms, self_ms`` over all spans.  A span's
    self time is its duration minus the time its child spans (the spans
    it directly encloses on the same thread) cover."""
    by_thread: Dict[int, List[Any]] = defaultdict(list)
    for event in events:
        if event.ph == "X":
            by_thread[event.tid].append(event)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})

    def close(entry: List[Any]) -> None:
        span, covered = entry
        row = table[span.name]
        row["calls"] += 1
        row["total_ms"] += span.dur / 1e3
        row["self_ms"] += (span.dur - covered) / 1e3

    for spans in by_thread.values():
        spans.sort(key=lambda e: (e.ts, -e.dur))
        stack: List[List[Any]] = []
        for span in spans:
            while stack and span.ts >= stack[-1][0].end:
                close(stack.pop())
            if stack:
                stack[-1][1] += span.dur
            stack.append([span, 0.0])
        while stack:
            close(stack.pop())
    return dict(table)


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _spans(events: Iterable[Any], name: str) -> List[Any]:
    return [e for e in events if e.ph == "X" and e.name == name]


def per_layer(events: Sequence[Any], ops: List[Op], duration_s: float,
              workload: Any, untraced_rate: float,
              traced_rate: float) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` for one traced run, except
    those the workload's probes found absent.

    ``events`` is everything the run's tracer recorded (the traced set-up
    and the traced window); ``ops`` and ``duration_s`` are the traced
    window's."""
    m: Dict[str, float] = {}
    compiles = _spans(events, "passes.compile_graph")

    def mean_ms(name: str, among: Iterable[Any] = events) -> float:
        return _mean([e.dur / 1e3 for e in _spans(among, name)])

    m["frontend.flatten_ms"] = mean_ms("frontend.flatten")
    m["passes.compile_graph_ms"] = mean_ms("passes.compile_graph")
    for name in PASS_NAMES:
        m[f"passes.{name}_ms"] = _ratio(
            sum(e.dur / 1e3 for e in _spans(events, name) if e.cat == "pass"),
            len(compiles))
    m["passes.actors_out"] = _mean([e.args["actors_out"] for e in compiles])
    m["codegen.emit_cpp_ms"] = mean_ms("codegen.emit_cpp")
    m["codegen.cpp_kb"] = _mean([e.args["cpp_kb"] for e in
                                 _spans(events, "codegen.emit_cpp")])
    m["schedule.build_schedule_ms"] = mean_ms("schedule.build_schedule")

    # Runtime and multicore layers: the timed ops only, not set-up.
    op_events = [(op, events[op.events[0]:op.events[1]]) for op in ops]
    window = [e for _op, evs in op_events for e in evs]
    runs = _spans(window, "runtime.execute")
    for phase in ("setup", "init", "steady"):
        m[f"runtime.{phase}_ms"] = mean_ms(f"runtime.{phase}", window)
    m["runtime.kernel_cache_hit_ratio"] = _ratio(
        sum(e.args["kernel_cache"].get("hits", 0) for e in runs),
        sum(e.args["kernel_cache"].get("lookups", 0) for e in runs))
    m["runtime.vector.batched_share"] = _ratio(
        sum(e.args["batched"] for e in runs),
        sum(e.args["firings"] for e in runs))
    degraded = 0
    for app in STEADY_LONG:
        app_events = [e for op, evs in op_events if op.tag == app for e in evs]
        app_runs = _spans(app_events, "runtime.execute")
        m[f"runtime.steady_ms.{app}"] = mean_ms("runtime.steady", app_events)
        m[f"runtime.setup_ms.{app}"] = mean_ms("runtime.setup", app_events)
        m[f"runtime.vector.fallback_actors.{app}"] = _mean(
            [e.args["fallback"] for e in app_runs])
        m[f"runtime.vector.batched_share.{app}"] = _ratio(
            sum(e.args["batched"] for e in app_runs),
            sum(e.args["firings"] for e in app_runs))
        degraded += max((e.args["degraded"] for e in app_runs), default=0)
    m["runtime.tape.degraded_actors"] = degraded

    core_max = [max(e.dur / 1e3 for e in steady)
                for _op, evs in op_events
                if (steady := [e for e in evs if e.ph == "X"
                               and _CORE_STEADY.match(e.name)])]
    m["multicore.core_steady_ms_max"] = _mean(core_max)
    parallel = [e for e in runs if "core_cycles" in e.args]
    m["multicore.core_balance"] = _mean(
        [_ratio(max(c), statistics.fmean(c)) for c in
         (e.args["core_cycles"] for e in parallel) if c])
    m["multicore.channel_stalls"] = _mean([e.args["stalls"] for e in parallel])
    m["multicore.cut_tapes"] = _mean([e.args["cut_tapes"] for e in parallel])

    served = [op for op in ops if "busy_s" in op.info]
    for cls in SERVE_CLASSES:
        ok = [op for op in served if op.tag == cls and op.ok]
        m[f"serve.busy_ms_p50.{cls}"] = _median(
            [op.info["busy_s"] * 1e3 for op in ok])
        m[f"serve.overhead_ms_p50.{cls}"] = _median(
            [(op.latency_s - op.info["busy_s"]) * 1e3 for op in ok])
    m["serve.graph_cache_hit_ratio"] = _mean(
        [float(op.info["graph_cache_hit"]) for op in served])
    m["serve.kernel_cache_hit_ratio"] = _ratio(
        sum(op.info["kernel_cache"].get("hits", 0) for op in served),
        sum(op.info["kernel_cache"].get("lookups", 0) for op in served))
    m["serve.worker_busy_share"] = _ratio(
        sum(op.info["busy_s"] for op in served), SERVE_WORKERS * duration_s)
    m["serve.overloads"] = getattr(workload, "overloads", 0)
    m["serve.leaked_segments"] = getattr(workload, "leaked_segments", 0)

    m.update(workload.probes)
    m["trace_overhead_share"] = _ratio(untraced_rate, traced_rate) - 1.0
    return {name: float(m.get(name, 0.0)) for name, _unit in PER_LAYER
            if name not in workload.absent}
