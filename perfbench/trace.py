"""Span recorder and layer instrumentation for the traced run.

:func:`instrument` wraps each layer's public entry points at the names
their callers actually bind (``repro.engine.core`` imports
``generate_function`` with ``from ... import``, so the wrapper goes on
``repro.engine.core.generate_function``) and records one span per call.
Nothing under ``src/`` changes; :func:`instrument` returns a function
that restores every original.

A span is ``[name, start, end, parent, trace, thread]``; ``parent`` is
the index of the enclosing span (on the same thread, or the thread that
handed the work to a planner pool thread) and ``trace`` identifies the
operation the span belongs to.  Spans stay in memory until
:func:`write` dumps them as plain JSON and as Chrome trace-event JSON,
which opens in Perfetto.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import percentile

#: span name -> the per-layer metric prefix it feeds (``<prefix>.s`` and,
#: where listed in COUNTED, ``<prefix>.calls``)
SPAN_METRICS = {
    "frontend.lower": "frontend",
    "ir.optimize": "ir.optimize",
    "interproc.plan": "interproc.plan",
    "interproc.callgraph": "interproc.callgraph",
    "regalloc.allocate": "regalloc.allocate",
    "dataflow.liveness": "dataflow.liveness",
    "dataflow.antav": "dataflow.antav",
    "shrinkwrap.place": "shrinkwrap",
    "target.codegen": "target.codegen",
    "pipeline.link": "pipeline.link",
    "store.get": "store.get",
    "store.put": "store.put",
    "sim.profile": "sim.profile",
    "sim.translate": "sim.translate",
    "sim.execute": "sim.execute",
}
COUNTED = (
    "frontend", "interproc.plan", "regalloc.allocate", "pipeline.link",
    "store.get", "store.put",
)

#: layers whose self time is reported (the first dotted part of a span)
LAYERS = (
    "frontend", "ir", "interproc", "regalloc", "dataflow", "shrinkwrap",
    "target", "pipeline", "engine", "store", "sim",
)

#: what the after-call hooks count (zero when a workload never calls
#: the layer)
COUNTERS = (
    "regalloc.memory_resident", "target.codegen.instrs", "sim.cycles",
    "sim.traces", "sim.fallbacks", "store.get.hits",
)


class Recorder:
    """In-memory span sink shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: engines and store handles created while instrumented
        self.engines: List[object] = []
        self.stores: List[object] = []
        #: id(CompiledProgram) -> index of the compile_batch span that
        #: produced it (how a service request finds its batch)
        self.batch_of: Dict[int, int] = {}
        self.batch_sizes: List[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._traces = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_trace(self, prefix: str) -> str:
        with self._lock:
            self._traces += 1
            return f"{prefix}-{self._traces}"

    def begin(self, name: str, trace: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = (
                self.spans[parent][4] if parent is not None
                else self.new_trace(name)
            )
        with self._lock:
            sid = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, parent, trace,
                 threading.get_ident()]
            )
        stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, start: float, end: float, trace: str) -> int:
        """Record a finished root span that no call stack encloses (an
        open loop's request, which interleaves with others on one
        thread)."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append(
                [name, start, end, None, trace, threading.get_ident()]
            )
        return sid

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def adopt(self, parent: Optional[int]):
        """Run the enclosed calls on this thread as children of
        ``parent`` (a span of the thread that handed this thread its
        work)."""
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:   # planner pool threads count concurrently
            self.counts[name] += n


# -- instrumentation ----------------------------------------------------------

def _patch(owner, attr: str, make: Callable) -> Callable[[], None]:
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))
    return lambda: setattr(owner, attr, original)


def _spanned(rec: Recorder, name: str, after=None):
    def make(original):
        def wrapper(*args, **kwargs):
            sid = rec.begin(name)
            try:
                out = original(*args, **kwargs)
            finally:
                rec.end(sid)
            if after is not None:
                after(out, sid)
            return out
        return wrapper
    return make


def _registering(sink: List[object]):
    def make(original):
        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            sink.append(self)
        return wrapper
    return make


def instrument(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the undo function."""
    import repro.engine.core as core
    import repro.engine.frontend as frontend
    import repro.interproc.allocator as allocator
    import repro.regalloc.coloring as coloring
    import repro.shrinkwrap.placement as placement
    import repro.sim.jit as jit
    import repro.store.store as store

    def after_allocate(result, sid):
        rec.count("regalloc.memory_resident", sum(
            1 for v in result.candidates if v not in result.assignment
        ))

    def after_codegen(asm, sid):
        rec.count("target.codegen.instrs", len(asm.instrs))

    def after_get(value, sid):
        if value is not None:
            rec.count("store.get.hits")

    def after_execute(stats, sid):
        rec.count("sim.cycles", stats.cycles)
        if stats.jit3 is not None:
            rec.count("sim.traces", stats.jit3.get("traces", 0))
        if stats.sim_fallback:
            rec.count("sim.fallbacks")

    def after_batch(results, sid):
        rec.batch_sizes.append(len(results))
        for program in results:
            rec.batch_of[id(program)] = sid

    def propagating(original):
        # planner pool threads inherit the span that scheduled them
        def wrapper(levels, task, *args, **kwargs):
            parent = rec.current()

            def adopted(key):
                with rec.adopt(parent):
                    return task(key)
            return original(levels, adopted, *args, **kwargs)
        return wrapper

    patches = [
        (frontend.FrontendCache, "lower_source",
         _spanned(rec, "frontend.lower")),
        (frontend, "optimize_function", _spanned(rec, "ir.optimize")),
        (core, "build_call_graph", _spanned(rec, "interproc.callgraph")),
        (core, "plan_function", _spanned(rec, "interproc.plan")),
        (allocator, "allocate_function",
         _spanned(rec, "regalloc.allocate", after_allocate)),
        (coloring, "compute_liveness", _spanned(rec, "dataflow.liveness")),
        (allocator, "shrink_wrap", _spanned(rec, "shrinkwrap.place")),
        (placement, "solve_ant_av", _spanned(rec, "dataflow.antav")),
        (core, "generate_function",
         _spanned(rec, "target.codegen", after_codegen)),
        (core, "link_executable", _spanned(rec, "pipeline.link")),
        (core, "run_levels", propagating),
        (core.Engine, "__init__", _registering(rec.engines)),
        (core.Engine, "compile", _spanned(rec, "engine.compile")),
        (core.Engine, "compile_batch",
         _spanned(rec, "engine.compile_batch", after_batch)),
        (store.ArtifactStore, "__init__", _registering(rec.stores)),
        (store.ArtifactStore, "get", _spanned(rec, "store.get", after_get)),
        (store.ArtifactStore, "put", _spanned(rec, "store.put")),
        (jit, "run_program", _spanned(rec, "sim.profile")),
        (jit.Jit3Program, "__init__", _spanned(rec, "sim.translate")),
        (jit.Jit3Program, "run",
         _spanned(rec, "sim.execute", after_execute)),
    ]
    undo = [_patch(owner, attr, make) for owner, attr, make in patches]

    def restore() -> None:
        for fn in reversed(undo):
            fn()
    return restore


# -- analysis -----------------------------------------------------------------

def _union(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def analyse(
    rec: Recorder, links: Optional[Dict[int, int]] = None
) -> Tuple[Dict[str, float], List[Dict]]:
    """Per-layer inclusive and self times, call counts and per-operation
    uncovered time, plus one record per operation.

    Operations are the spans named ``op.*``.  ``links`` maps an
    operation span to a span on another thread that served it (an open
    loop's request to its ``compile_batch``); a linked span counts as
    that operation's child.
    """
    spans = rec.spans
    children: Dict[int, List[int]] = {}
    for sid, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(sid)
    for op, served_by in (links or {}).items():
        children.setdefault(op, []).append(served_by)

    totals: Counter = Counter()
    calls: Counter = Counter()
    self_time: Counter = Counter()
    engine_top = 0.0
    ops: List[Dict] = []
    for sid, span in enumerate(spans):
        name, start, end = span[0], span[1], span[2]
        if end is None:
            continue
        # children clipped to this span (a linked batch may outlast it)
        kids = [
            (max(start, spans[c][1]), min(end, spans[c][2]))
            for c in children.get(sid, ()) if spans[c][2] is not None
        ]
        covered = _union([(lo, hi) for lo, hi in kids if hi > lo])
        if name.startswith("op."):
            ops.append({
                "span": sid, "trace": span[4], "wall_s": end - start,
                "uncovered_s": end - start - covered,
            })
            continue
        layer = name.split(".", 1)[0]
        self_time[layer] += end - start - covered
        totals[name] += end - start
        calls[name] += 1
        if layer == "engine":
            parent = span[3]
            if parent is None or not spans[parent][0].startswith("engine."):
                engine_top += end - start

    out: Dict[str, float] = {}
    for span_name, prefix in SPAN_METRICS.items():
        out[f"{prefix}.s"] = totals[span_name]
        if prefix in COUNTED:
            out[f"{prefix}.calls"] = calls[span_name]
    out["engine.compile.s"] = engine_top
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    for name in COUNTERS:
        out[name] = rec.counts[name]
    uncovered = [op["uncovered_s"] for op in ops]
    op_wall = sum(op["wall_s"] for op in ops)
    out["trace.spans"] = len(spans)
    out["trace.ops"] = len(ops)
    out["trace.uncovered_s"] = sum(uncovered)
    out["trace.uncovered_share"] = (
        sum(uncovered) / op_wall if op_wall else 0.0
    )
    out["trace.uncovered_ms.p50"] = (
        percentile(uncovered, 50.0) * 1000.0 if uncovered else 0.0
    )
    return out, ops


def layer_metrics(
    rec: Recorder, links: Optional[Dict[int, int]] = None, put_bytes: int = 0,
) -> Tuple[Dict[str, float], List[Dict]]:
    """Every per-layer metric of BENCHMARK.json except the service and
    driver ones, from the recorder and the engines and stores it saw;
    and the per-operation records for :func:`write`."""
    out, ops = analyse(rec, links)
    stages = {s: [0, 0] for s in ("frontend", "plan", "codegen", "link")}
    for engine in rec.engines:
        for stage, st in engine.stats.stage_totals().items():
            if stage in stages:
                stages[stage][0] += st.hits
                stages[stage][1] += st.lookups
    for stage, (hits, lookups) in stages.items():
        out[f"engine.hit_ratio.{stage}"] = hits / lookups if lookups else 0.0
    gets = out["store.get.calls"]
    out["store.hit_ratio"] = out.pop("store.get.hits") / gets if gets else 0.0
    out["store.put_bytes"] = put_bytes
    out["store.lock_waits"] = sum(s.stats.lock_waits for s in rec.stores)
    execute = out["sim.execute.s"]
    cycles = out.pop("sim.cycles")
    out["sim.exec_cycles_per_s"] = cycles / execute if execute else 0.0
    return out, ops


def write(rec: Recorder, path: Path, ops: List[Dict]) -> None:
    """Dump the spans and the per-operation records as ``<path>.json``
    and the spans as Chrome trace-event JSON ``<path>.chrome.json``
    (open the latter in Perfetto)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = rec.spans
    t0 = min((s[1] for s in spans), default=0.0)
    with open(f"{path}.json", "w") as fh:
        json.dump({
            "fields": ["name", "start_s", "end_s", "parent", "trace",
                       "thread"],
            "spans": [
                [s[0], s[1] - t0, (s[2] or s[1]) - t0, s[3], s[4], s[5]]
                for s in spans
            ],
            "ops": ops,
        }, fh)
    events = []
    for sid, (name, start, end, parent, trace, thread) in enumerate(spans):
        end = start if end is None else end
        args = {"trace": trace, "span": sid, "parent": parent}
        if name.startswith("op.") and parent is None:
            # operations overlap on one thread: async begin/end pairs
            for ph, ts in (("b", start), ("e", end)):
                events.append({
                    "name": name, "cat": "op", "ph": ph, "id": sid,
                    "ts": (ts - t0) * 1e6, "pid": 1, "tid": thread,
                    "args": args,
                })
            continue
        events.append({
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": thread, "args": args,
        })
    with open(f"{path}.chrome.json", "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
