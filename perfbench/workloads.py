"""The four unpaced workloads, driven through the public ``repro`` API.

Every workload runs on ``core-i7-sse4`` with the ``full`` pipeline and the
``vector`` backend, with pacing off.  The seed only orders the inputs
(which app or session class comes next); apps are drawn in seeded rounds
in which each app or class appears equally often, and a timed window
ends on a round boundary, so two seeds measure the same mix.

Spans recorded here wrap each call into a layer (``frontend.flatten``,
``passes.compile_graph``, ``codegen.emit_cpp``, ``schedule.build_schedule``,
``runtime.execute``, ``serve.session``); the same tracer goes to
``compile_graph`` and ``execute`` through their ``tracer=`` parameter,
which adds the per-pass and ``runtime.*`` / ``core{n}.*`` spans.
"""

from __future__ import annotations

import gc
import importlib
import multiprocessing
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import build_schedule, compile_graph, execute, flatten, get_target
from repro.apps import get_benchmark
from repro.codegen import emit_cpp
from repro.experiments import DEFAULT_BENCHMARKS
from repro.serve import ServePool, SessionSpec, run_closed_loop

import hostspeed
from oracle import MACHINE, PIPELINE, digest, require

BACKEND = "vector"
COMPILE_SHORT_ITERATIONS = 8
#: Iterations per app sized so each op takes about the same wall time
#: (60-115 ms on a 2-CPU Xeon at the commit that added the benchmark), so
#: every app weighs about equally and a 25 s run holds 100+ ops.
STEADY_LONG = {"StreamTriad": 4096, "FMRadio": 768, "FilterBank": 512,
               "DES": 384, "MP3Decoder": 24}
MULTICORE_APPS = ("StreamTriad", "FMRadio", "FilterBank")
MULTICORE_ITERATIONS = 64
MULTICORE_CORES = 2
MULTICORE_PARTITIONER = "lpt"
#: Interleaved 1-core / 2-core op pairs behind each vs_1core ratio.
VS_1CORE_REPS = 5
#: small stays under the pool's default shm threshold (256 values);
#: large is at least 64k values.
SERVE_CLASSES = {"small": ("FMRadio", 16), "large": ("StreamTriad", 512)}
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
#: Sessions per closed-loop block; each block holds every class equally.
SERVE_BLOCK = 8

#: A run keeps drawing rounds past its deadline until it holds this many
#: ops, so its p90 rests on ten or more ops above it; never past
#: MAX_WINDOW_FACTOR times the requested seconds.
MIN_OPS = 100
MAX_WINDOW_FACTOR = 3
OP_TIMEOUT_S = 60.0


def reference_keys() -> List[Tuple[str, int]]:
    """Every (app, iterations) pair some workload checks."""
    keys = [(app, COMPILE_SHORT_ITERATIONS) for app in DEFAULT_BENCHMARKS]
    keys += list(STEADY_LONG.items())
    keys += [(app, MULTICORE_ITERATIONS) for app in MULTICORE_APPS]
    keys += list(SERVE_CLASSES.values())
    return list(dict.fromkeys(keys))


def optional_api(module: str, name: str) -> Optional[Callable]:
    """A public function a per-layer probe calls, or ``None`` when the
    commit under test no longer has it (the metric is then absent)."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


@dataclass
class Op:
    """One timed op: a job, an execute, or a served session."""

    tag: str
    latency_s: float
    ok: bool
    items: int = 0
    error: Optional[str] = None
    #: (first, end) indices of this op's events in the run's tracer.
    events: Tuple[int, int] = (0, 0)
    info: Dict[str, Any] = field(default_factory=dict)
    #: Host slowdown factor over the op's round (see ``hostspeed``).
    host: float = 1.0

    @property
    def ref_latency_s(self) -> float:
        """Latency on the reference-speed host."""
        return self.latency_s / self.host


@dataclass
class Window:
    """The ops of one timed window, run in whole rounds."""

    ops: List[Op]
    #: Wall seconds of each round, calibrations excluded.
    round_s: List[float]
    #: Host slowdown factor over each round.
    round_host: List[float]

    @property
    def wall_s(self) -> float:
        return sum(self.round_s)

    @property
    def ref_s(self) -> float:
        """The window's length on the reference-speed host."""
        return sum(r / h for r, h in zip(self.round_s, self.round_host))


def median_ms(fn: Callable[[], Any], reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_stats(result: Any) -> Dict[str, Any]:
    """Layer counts of one ``execute`` result (traced runs only)."""
    statuses = list((getattr(result, "vectorized", None) or {}).values())
    stats = {
        "kernel_cache": dict(result.kernel_cache or {}),
        "batched": getattr(result, "batched_firings", 0),
        # batched_firings counts init and steady firings alike.
        "firings": sum(firings for _actor, firings in result.schedule.init)
        + result.iterations * sum(
            firings for _actor, firings in result.schedule.steady),
        "fallback": sum(1 for s in statuses if s.startswith("fallback")),
        "degraded": sum(1 for s in statuses if "tape fallback" in s),
    }
    if hasattr(result, "core_cycles"):
        machine = get_target(MACHINE)
        stats.update(core_cycles=result.core_cycles(machine),
                     stalls=result.total_stalls(),
                     cut_tapes=len(result.channel_stats))
    return stats


class Workload:
    """One workload: repeatable set-up, a timed window, and probes that
    only the traced run makes."""

    name = ""

    def __init__(self, seed: int, reference: Dict[str, str]) -> None:
        self.rng = random.Random(seed)
        self.reference = reference
        self.machine = get_target(MACHINE)
        self.probes: Dict[str, float] = {}
        self.absent: List[str] = []

    def setup(self, tracer: Any) -> None:
        raise NotImplementedError

    def round(self, tracer: Any) -> List[Op]:
        """Run one seeded round: every app (or session class) of the
        workload equally often, in seeded order."""
        raise NotImplementedError

    def window(self, seconds: float, tracer: Any,
               min_ops: int = MIN_OPS) -> Window:
        """Run whole rounds until ``seconds`` have passed and the window
        holds ``min_ops`` ops.  A calibration kernel runs before the
        first round and after each one; a round's host slowdown factor
        is the mean of the two that bracket it."""
        window = Window([], [], [])
        start = time.perf_counter()
        deadline = start + seconds
        hard_stop = start + MAX_WINDOW_FACTOR * seconds
        before = hostspeed.measure(1)
        now = time.perf_counter()
        while now < hard_stop and (now < deadline
                                   or len(window.ops) < min_ops):
            ops = self.round(tracer)
            round_s = time.perf_counter() - now
            after = hostspeed.measure(1)
            host = hostspeed.slowdown((before + after) / 2)
            for op in ops:
                op.host = host
            window.ops.extend(ops)
            window.round_s.append(round_s)
            window.round_host.append(host)
            before = after
            now = time.perf_counter()
        return window

    def probe(self) -> None:
        """Traced run only: direct measurements of single layers."""

    def close(self) -> None:
        """Stop every process the workload started."""

    # -- sequential workloads ------------------------------------------------
    def _compile(self, app: str, tracer: Any) -> Tuple[Any, Any]:
        with tracer.span("frontend.flatten", cat="bench", app=app):
            graph = flatten(get_benchmark(app))
        with tracer.span("passes.compile_graph", cat="bench",
                         app=app) as sp:
            compiled = compile_graph(graph, self.machine, pipeline=PIPELINE,
                                     tracer=tracer)
            sp.add(actors_out=len(compiled.graph.actors))
        with tracer.span("schedule.build_schedule", cat="bench", app=app):
            schedule = build_schedule(compiled.graph)
        return compiled.graph, schedule

    def _execute(self, app: str, graph: Any, schedule: Any, iterations: int,
                 tracer: Any, **kw: Any) -> Any:
        if kw.get("pace"):
            raise RuntimeError("the benchmark runs unpaced")
        with tracer.span("runtime.execute", cat="bench", app=app) as sp:
            result = execute(graph, schedule, machine=self.machine,
                             iterations=iterations, backend=BACKEND,
                             tracer=tracer, **kw)
            if tracer.enabled:
                sp.add(**_run_stats(result))
        return result

    def _timed(self, app: str, iterations: int, tracer: Any,
               fn: Callable[[], Any]) -> Op:
        expect = require(self.reference, app, iterations)
        first = len(tracer)
        start = time.perf_counter()
        try:
            with tracer.span("bench.op", cat="bench", app=app):
                result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            return Op(app, time.perf_counter() - start, False,
                      error=_error(exc), events=(first, len(tracer)))
        latency = time.perf_counter() - start
        op = Op(app, latency, True, events=(first, len(tracer)))
        if latency > OP_TIMEOUT_S:
            op.ok, op.error = False, f"timeout: {latency:.1f}s"
        elif digest(result.outputs, result.init_outputs) != expect:
            op.ok, op.error = False, "outputs differ from the interp reference"
        else:
            op.items = len(result.outputs) + len(result.init_outputs)
        return op

    def _shuffled(self, items: Iterable[Any]) -> List[Any]:
        items = list(items)
        self.rng.shuffle(items)
        return items


class CompileShort(Workload):
    """One op is a whole short job: flatten -> compile_graph -> emit_cpp ->
    build_schedule -> execute(iterations=8), on one of the 12 paper apps."""

    name = "compile-short"

    def _job(self, app: str, tracer: Any) -> Any:
        graph, schedule = self._compile(app, tracer)
        with tracer.span("codegen.emit_cpp", cat="bench", app=app) as sp:
            source = emit_cpp(graph, self.machine)
            sp.add(cpp_kb=len(source) / 1024)
        return self._execute(app, graph, schedule, COMPILE_SHORT_ITERATIONS,
                             tracer)

    def setup(self, tracer: Any) -> None:
        for app in DEFAULT_BENCHMARKS:
            self._job(app, tracer)

    def round(self, tracer: Any) -> List[Op]:
        return [self._timed(app, COMPILE_SHORT_ITERATIONS, tracer,
                            lambda: self._job(app, tracer))
                for app in self._shuffled(DEFAULT_BENCHMARKS)]


class _Precompiled(Workload):
    """Graphs are compiled during set-up; one op is one ``execute``."""

    apps: Dict[str, int] = {}
    execute_kw: Dict[str, Any] = {}

    def setup(self, tracer: Any) -> None:
        self.graphs = {app: self._compile(app, tracer) for app in self.apps}
        for app, iterations in self.apps.items():
            self._op(app, iterations, tracer)

    def _op(self, app: str, iterations: int, tracer: Any, **kw: Any) -> Any:
        graph, schedule = self.graphs[app]
        return self._execute(app, graph, schedule, iterations, tracer,
                             **{**self.execute_kw, **kw})

    def round(self, tracer: Any) -> List[Op]:
        return [self._timed(app, self.apps[app], tracer,
                            lambda: self._op(app, self.apps[app], tracer))
                for app in self._shuffled(self.apps)]


class SteadyLong(_Precompiled):
    name = "steady-long"
    apps = STEADY_LONG


class Multicore2(_Precompiled):
    name = "multicore-2"
    apps = {app: MULTICORE_ITERATIONS for app in MULTICORE_APPS}
    execute_kw = {"cores": MULTICORE_CORES,
                  "partitioner": MULTICORE_PARTITIONER}

    def probe(self) -> None:
        from repro.obs import Tracer
        quiet = Tracer(enabled=False)
        build_ctx = optional_api("repro.plan", "build_plan_context")
        get_part = optional_api("repro.plan", "get_partitioner")
        context_ms, partition_ms = [], []
        for app, iterations in self.apps.items():
            graph, schedule = self.graphs[app]
            # 1 core vs 2 cores, untraced and interleaved so that host
            # speed drift weighs on both sides alike.
            one, two = [], []
            for _ in range(VS_1CORE_REPS):
                one.append(median_ms(lambda: self._op(
                    app, iterations, quiet, cores=1, partitioner=None), 1))
                two.append(median_ms(lambda: self._op(
                    app, iterations, quiet), 1))
            self.probes[f"multicore.vs_1core.{app}"] = \
                statistics.median(one) / statistics.median(two)
            if build_ctx is None or get_part is None:
                continue
            context_ms.append(median_ms(
                lambda: build_ctx(graph, self.machine, schedule=schedule), 3))
            ctx = build_ctx(graph, self.machine, schedule=schedule)
            partition = get_part(MULTICORE_PARTITIONER, self.machine)
            partition_ms.append(median_ms(
                lambda: partition(graph, ctx.costs, MULTICORE_CORES), 3))
        if context_ms:
            self.probes["plan.build_plan_context_ms"] = \
                statistics.fmean(context_ms)
            self.probes["plan.partition_ms"] = statistics.fmean(partition_ms)
        else:
            self.absent += ["plan.build_plan_context_ms", "plan.partition_ms"]


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class _KeptTicket:
    """Ticket that hands its session result to the recorder and closes
    the session's span when the client has waited for it."""

    def __init__(self, ticket: Any, owner: "_Recorder", tag: str,
                 span: Any) -> None:
        self._ticket, self._owner, self._tag, self._span = \
            ticket, owner, tag, span

    def result(self, timeout: Optional[float] = None) -> Any:
        try:
            result = self._ticket.result(timeout)
        finally:
            self._span.__exit__(None, None, None)
        self._owner.results[self._tag] = result
        return result


class _Recorder:
    """Pool front for ``run_closed_loop`` that keeps every session result,
    since the load generator itself keeps only latency and status."""

    def __init__(self, pool: Any, tracer: Any) -> None:
        self.pool = pool
        self.workers = pool.workers
        self.tracer = tracer
        self.results: Dict[str, Any] = {}

    def submit(self, spec: Any) -> Any:
        ticket = self.pool.submit(spec)
        if not hasattr(ticket, "result"):  # an overload; the client retries
            return ticket
        span = self.tracer.span("serve.session", cat="bench", tag=spec.tag)
        span.__enter__()
        return _KeptTicket(ticket, self, spec.tag, span)


class ServeMix(Workload):
    """One op is one session on a 2-worker vector ``ServePool``, driven by
    ``run_closed_loop`` with 2 clients; sessions are a seeded 50/50 mix of
    small (below the shm threshold) and large (64k values) outputs."""

    name = "serve-mix"

    def __init__(self, seed: int, reference: Dict[str, str]) -> None:
        super().__init__(seed, reference)
        self.pool: Optional[Any] = None
        self.scratch = Path(tempfile.mkdtemp(
            prefix="serve-", dir=_scratch_dir()))
        self.shm_before = _shm_entries()
        self.overloads = 0
        self.leaked_segments = 0
        self._sessions = 0
        self._last_ok: Dict[str, Any] = {}

    def _spec(self, cls: str) -> SessionSpec:
        app, iterations = SERVE_CLASSES[cls]
        self._sessions += 1
        spec = SessionSpec(benchmark=app, pipeline=PIPELINE, machine=MACHINE,
                           backend=BACKEND, iterations=iterations,
                           tag=f"{cls}-{self._sessions}")
        if spec.seconds_per_cycle != 0.0:
            raise RuntimeError("serve-mix must run unpaced")
        return spec

    def setup(self, tracer: Any) -> None:
        self._stop_pool()
        # A fresh kernel store per pool: no set-up warms from an earlier one.
        store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        self.pool = ServePool(workers=SERVE_WORKERS, backend=BACKEND,
                              store_dir=store)
        warm = [self._spec(cls) for cls in SERVE_CLASSES for _ in range(2)]
        run_closed_loop(self.pool, warm, concurrency=SERVE_CLIENTS,
                        requests=len(warm), timeout_s=OP_TIMEOUT_S)

    def round(self, tracer: Any) -> List[Op]:
        """One closed-loop block of SERVE_BLOCK sessions."""
        block = [self._spec(cls) for cls in self._shuffled(
            list(SERVE_CLASSES) * (SERVE_BLOCK // len(SERVE_CLASSES)))]
        recorder = _Recorder(self.pool, tracer)
        report = run_closed_loop(recorder, block, concurrency=SERVE_CLIENTS,
                                 requests=len(block), timeout_s=OP_TIMEOUT_S)
        self.overloads += report.overloads
        records = {r.spec_tag: r for r in report.records}
        return [self._check(spec, records.get(spec.tag),
                            recorder.results.pop(spec.tag, None))
                for spec in block]

    def _check(self, spec: SessionSpec, record: Any, result: Any) -> Op:
        cls = spec.tag.split("-")[0]
        if record is None or result is None:
            return Op(cls, OP_TIMEOUT_S, False,
                      error="session never served (client gave up)")
        op = Op(cls, record.latency_s, True,
                info={"busy_s": result.busy_s,
                      "graph_cache_hit": result.graph_cache_hit,
                      "kernel_cache": dict(result.kernel_cache or {})})
        expect = require(self.reference, spec.benchmark, spec.iterations)
        if not result.ok:
            op.ok, op.error = False, result.error
        elif digest(result.outputs, result.init_outputs) != expect:
            op.ok, op.error = False, "outputs differ from the interp reference"
        else:
            op.items = len(result.outputs) + len(result.init_outputs)
            self._last_ok[cls] = result
        return op

    def probe(self) -> None:
        encode = optional_api("repro.serve", "encode_result")
        decode = optional_api("repro.serve", "decode_result")
        stage = optional_api("repro.serve", "stage_result_shm")
        load = optional_api("repro.serve", "load_result_shm")
        threshold = getattr(importlib.import_module("repro.serve"),
                            "SHM_THRESHOLD_DEFAULT", 256)
        for cls, result in self._last_ok.items():
            if encode is None or decode is None:
                self.absent += [f"serve.encode_ms.{cls}",
                                f"serve.decode_ms.{cls}"]
                continue
            self.probes[f"serve.encode_ms.{cls}"] = median_ms(
                lambda: encode(result), 10)
            wire = encode(result)
            self.probes[f"serve.decode_ms.{cls}"] = median_ms(
                lambda: decode(dict(wire)), 10)
        large = self._last_ok.get("large")
        if stage is None or load is None or encode is None:
            self.absent.append("serve.shm_roundtrip_ms.large")
        elif large is not None:
            seqs = iter(range(1 << 30))
            uid = f"pb{os.getpid()}"
            wire = encode(large)

            def roundtrip() -> None:
                load(stage(dict(wire), uid=uid, worker=0, seq=next(seqs),
                           threshold=threshold))

            self.probes["serve.shm_roundtrip_ms.large"] = median_ms(
                roundtrip, 10)
        if self.pool is not None:
            snapshot = getattr(self.pool, "stats_snapshot", None)
            if snapshot is None:
                self.absent.append("serve.requeued")
            else:
                self.probes["serve.requeued"] = float(
                    sum(s.get("requeued", 0) for s in snapshot()))

    def _stop_pool(self) -> None:
        if self.pool is not None:
            pool, self.pool = self.pool, None
            pool.shutdown()

    def close(self) -> None:
        try:
            self._stop_pool()
        finally:
            _stop_children()
            # Counted before the tracker stops: it unlinks what it holds.
            self.leaked_segments = len(_shm_entries() - self.shm_before)
            _stop_resource_tracker()
            shutil.rmtree(self.scratch, ignore_errors=True)


def _stop_children() -> None:
    """End every process and thread the pool left behind and wait for
    each."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    # The pool's queues unlink their semaphores when the last reference
    # goes, and a queue's feeder thread holds one until it ends: a
    # semaphore let go after the tracker stopped would start a new one.
    deadline = time.monotonic() + 10
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    gc.collect()


def _stop_resource_tracker() -> None:
    """Stop the ``resource_tracker`` helper process that the ``spawn``
    start method launches, which would otherwise outlive this process,
    and wait for it."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def _scratch_dir() -> Path:
    path = Path(__file__).resolve().parent / "out"
    path.mkdir(exist_ok=True)
    return path


WORKLOADS = {cls.name: cls for cls in
             (CompileShort, SteadyLong, ServeMix, Multicore2)}
