"""The benchmark's child processes: one set-up or measured task each.

``run.py`` spawns ``python3 perfbench/work.py TASK PARAMS_JSON`` and
reads the JSON object this prints as its last stdout line.  Running a
workload in its own process gives it a cold interpreter (the
``run-tier3`` path under test *is* a fresh process) and lets it report
its own peak RSS.

Tasks:

``setup``
    Import the program under test and prepare one workload's inputs; for
    ``run-tier3`` and ``service-zipf`` also warm a fresh artifact store.
    Reports ``setup_s``: seconds from the spawn to ready.
``compile-cold``
    Closed loop of 78 whole-program compiles (13 programs x 6 paper
    configs), each through a fresh storeless ``Compiler``, repeated
    until ``seconds`` have passed.
``run-tier3``
    Source to ``RunStats`` for all 13 programs at ``O3_SW`` on tier 3,
    over a store that set-up warmed.
``service-zipf``
    One ``CompileService`` over a store that set-up warmed: open-loop
    ``nominal`` and ``peak`` phases, then a closed loop of one client
    with the speed kernel timed between requests.

With ``trace`` set, a task also runs its unit of work once more with the
layers instrumented (:mod:`trace`) and reports per-layer metrics and the
tracing overhead.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    LIMIT_S, WORK, Speedometer, emit, median, peak_rss_mb, percentile,
    use_source_tree,
)

#: speed-kernel slices timed at each end of a set-up, and between two
#: programs of run-tier3 (or its set-up) or two slices of the service's
#: set-up (the service's closed loop times one slice between requests)
SETUP_SLICES = 5
GAP_SLICES = 3

#: pooled variants compiled between two speed samples of the service's
#: set-up
SETUP_STRIDE = 8

#: a set-up's time is scaled by the host's speed sampled before the
#: program under test is imported, during the set-up and when it is done
STARTUP = Speedometer()
if sys.argv[1:2] == ["setup"]:
    STARTUP.sample(SETUP_SLICES)

use_source_tree()

import golden  # noqa: E402
import inputs  # noqa: E402
import trace  # noqa: E402
from repro import Compiler, O3_SW, PAPER_CONFIGS, compile_program  # noqa: E402
from repro.service import (  # noqa: E402
    CompileService, DeadlineExceeded, ServiceOverloaded,
)
from repro.store import ArtifactStore  # noqa: E402

#: a request still unanswered after this long is failed by the service
DEADLINE_S = 10.0

#: fresh (never-seen) service edits re-checked against compile_program
FRESH_CHECKS = 16


def store_bytes(path) -> int:
    return ArtifactStore(path).size_bytes() if Path(path).exists() else 0


# -- set-up -------------------------------------------------------------------

def task_setup(p: Dict) -> Dict:
    workload, seed = p["workload"], p["seed"]
    sources = inputs.suite()
    mismatches: List[str] = []
    if workload == "compile-cold":
        inputs.program_order(seed)
        ready = time.perf_counter()
    elif workload == "run-tier3":
        runs = []
        for program in inputs.program_order(seed):
            built = Compiler(O3_SW, store_path=p["store"]) \
                .add_source(sources[program]).compile()
            runs.append((program, built.run(sim_tier="jit3")))
            STARTUP.sample(GAP_SLICES)
        ready = time.perf_counter()
        gold = golden.load()
        for program, stats in runs:
            mismatches += golden.check_run(gold, program, stats)
    else:
        pool = inputs.service_pool(seed)
        sessions = {
            name: Compiler(options, store_path=p["store"])
            for name, options in inputs.SERVICE_OPTIONS.items()
        }
        for j, variant in enumerate(pool, 1):
            sessions[variant.options].add_source(
                ("main", variant.source(sources))
            ).compile()
            if j % SETUP_STRIDE == 0:
                STARTUP.sample(GAP_SLICES)
        ready = time.perf_counter()
        if p.get("oracle"):
            # the reference answers for every pooled variant, from
            # throwaway compile_program sessions (no store, no sharing)
            oracle = {
                v.key: compile_program(
                    v.source(sources), inputs.SERVICE_OPTIONS[v.options]
                ).executable.fingerprint()
                for v in pool
            }
            Path(p["oracle"]).write_text(json.dumps(oracle))
    # not counting the speed samples taken during the set-up
    raw = ready - p["spawned"] - STARTUP.spent_s
    STARTUP.sample(SETUP_SLICES)
    return {
        "setup_s": STARTUP.scaled(p["spawned"], ready),
        "setup_raw_s": raw, "mismatches": mismatches,
    }


# -- compile-cold -------------------------------------------------------------

def task_compile_cold(p: Dict) -> Dict:
    sources = inputs.suite()
    cells = [
        (program, config)
        for program in inputs.program_order(p["seed"])
        for config in inputs.CONFIGS
    ]
    gold = golden.load()
    out = {
        "ops": [], "walls": [], "raw_walls": [], "mismatches": [],
        "errors": [], "attempted": 0, "text_words": 0,
        "per_iteration": len(cells),
    }
    speed = Speedometer()

    def iteration(k: int, rec: Optional[trace.Recorder] = None) -> float:
        """One pass over the cells, timing the speed kernel after every
        compile; returns the seconds its compiles took at the reference
        speed, and records them when untraced."""
        built = []
        speed.sample()
        for j, (program, config) in enumerate(cells):
            t0 = time.perf_counter()
            sid = rec.begin("op.compile", f"compile-{k}-{j}") if rec else None
            try:
                exe = Compiler(PAPER_CONFIGS[config]) \
                    .add_source(sources[program]).compile().executable
            except Exception as exc:  # reported as a failed operation
                exe = None
                out["errors"].append(f"{program}/{config}: {exc!r}")
            finally:
                if rec:
                    rec.end(sid)
            built.append((program, config, t0, time.perf_counter(), exe))
            speed.sample()
        wall = sum(t1 - t0 for _, _, t0, t1, _ in built)
        out["attempted"] += len(cells)
        words = 0
        scaled_wall = 0.0
        for program, config, t0, t1, exe in built:
            scaled = (t1 - t0) * speed.factor(t0, t1)
            scaled_wall += scaled
            if exe is None:
                continue
            if rec is None:
                out["ops"].append([program, config, scaled * 1000.0])
            out["mismatches"] += golden.check_executable(
                gold, program, config, exe.fingerprint()
            )
            words += len(exe.instrs)
        out["text_words"] = words
        if rec is None:
            out["walls"].append(scaled_wall)
            out["raw_walls"].append(wall)
        return scaled_wall

    budget = p["seconds"] / 2.0 if p["trace"] else p["seconds"]
    start = time.perf_counter()
    k = 0
    while True:
        iteration(k)
        k += 1
        if time.perf_counter() - start >= budget:
            break
    out["rss_mb"] = peak_rss_mb()
    out["slice_ms"] = speed.median_slice_ms()
    if p["trace"]:
        rec = trace.Recorder()
        undo = trace.instrument(rec)
        try:
            traced = iteration(k, rec)
        finally:
            undo()
        untraced = median(out["walls"])
        out["layers"], ops = trace.layer_metrics(rec)
        out["layers"]["trace.overhead_s"] = traced - untraced
        out["layers"]["trace.overhead_ratio"] = traced / untraced - 1.0
        trace.write(rec, Path(p["trace_path"]), ops)
    return out


# -- run-tier3 ----------------------------------------------------------------

def task_run_tier3(p: Dict) -> Dict:
    sources = inputs.suite()
    order = inputs.program_order(p["seed"])
    gold = golden.load()
    rec = None
    undo = None
    before = store_bytes(p["store"]) if p["trace"] else 0
    if p["trace"]:
        rec = trace.Recorder()
        undo = trace.instrument(rec)
    out = {"ops": [], "mismatches": [], "errors": [], "runs": {}}
    checks = []
    # the speed kernel runs between programs, and each program's time is
    # also recorded at the reference speed
    speed = Speedometer()
    timed = []
    try:
        speed.sample(GAP_SLICES)
        for j, program in enumerate(order):
            t0 = time.perf_counter()
            sid = rec.begin("op.program", f"program-{j}") if rec else None
            try:
                built = Compiler(O3_SW, store_path=p["store"]) \
                    .add_source(sources[program]).compile()
                stats = built.run(sim_tier="jit3")
            except Exception as exc:  # reported as a failed operation
                out["errors"].append(f"{program}: {exc!r}")
                continue
            finally:
                if rec:
                    rec.end(sid)
            timed.append((program, t0, time.perf_counter()))
            checks.append((program, built.executable.fingerprint(), stats))
            speed.sample(GAP_SLICES)
    finally:
        if undo is not None:
            undo()
    out["rss_mb"] = peak_rss_mb()
    for program, t0, t1 in timed:
        ms = (t1 - t0) * 1000.0
        out["ops"].append([program, ms * speed.factor(t0, t1), ms])
    out["slice_ms"] = speed.median_slice_ms()
    out["attempted"] = len(order)
    for program, fingerprint, stats in checks:
        out["mismatches"] += golden.check_executable(
            gold, program, "C", fingerprint
        )
        out["mismatches"] += golden.check_run(gold, program, stats)
        out["runs"][program] = golden.stats_record(stats)
        del out["runs"][program]["output"]
    if rec is not None:
        out["layers"], ops = trace.layer_metrics(
            rec, put_bytes=store_bytes(p["store"]) - before
        )
        trace.write(rec, Path(p["trace_path"]), ops)
    return out


# -- service-zipf -------------------------------------------------------------

class _PhaseRun:
    """Everything one service phase observed."""

    def __init__(self, phase: inputs.Phase):
        self.phase = phase
        n = len(phase.arrivals)
        self.latency: List[Optional[float]] = [None] * n
        self.status: List[Optional[str]] = [None] * n
        self.lag: List[float] = []
        self.backlog: List[List[float]] = []   # [t, in flight] at each send
        self.fingerprints: Dict[int, str] = {}  # fresh requests to re-check
        self.batch_wall: Dict[int, float] = {}  # request -> its batch's wall
        self.errors: List[str] = []
        self.wrong: List[str] = []
        self.inflight = 0
        #: closed loop: each request's seconds and speed factor
        self.took: Dict[int, float] = {}
        self.factor: Dict[int, float] = {}
        #: the service's batch window, a timer: never scaled
        self.window = 0.0

    def at_ref(self, i: int, seconds: float) -> float:
        """``seconds`` of closed-loop request ``i`` at the reference
        speed: the batch window as it is, the rest scaled by the
        request's factor."""
        window = min(self.window, seconds)
        return window + (seconds - window) * self.factor[i]

    def _latencies(self, sent: List[int], scaled: bool, busy: float) -> Dict:
        """Latency percentiles and goodput of the sent requests, at the
        reference speed when ``scaled``."""
        ok = [self.at_ref(i, self.latency[i]) if scaled else self.latency[i]
              for i in sent if self.status[i] == "ok"]
        if self.took:
            # one client: the phase was busy while a request was out
            busy = sum(
                self.at_ref(i, took) if scaled else took
                for i, took in self.took.items()
            )
        # a request that failed, was shed or expired misses any limit
        missed = len(sent) - len(ok)
        lat_ms = [x * 1000.0 for x in ok] + [DEADLINE_S * 1000.0] * missed
        return {
            "p50_ms": percentile(lat_ms, 50.0),
            "p90_ms": percentile(lat_ms, 90.0),
            "p99_ms": percentile(lat_ms, 99.0),
            "mean_ms": sum(lat_ms) / len(lat_ms),
            "goodput_rps": sum(1 for x in ok if x <= LIMIT_S) / busy,
        }

    def report(self, start: float, finished: float, last_send: float) -> Dict:
        phase = self.phase
        sent = [i for i, st in enumerate(self.status) if st is not None]
        ok = sum(1 for i in sent if self.status[i] == "ok")
        mid = [n for t, n in self.backlog
               if 0.25 * phase.seconds <= t < 0.5 * phase.seconds]
        tail = [n for t, n in self.backlog if t >= 0.75 * phase.seconds]
        end_inflight = self.backlog[-1][1] if self.backlog else 0
        growing = bool(
            mid and tail
            and end_inflight > max(5.0, phase.rate * LIMIT_S)
            and sum(tail) / len(tail) > 1.5 * sum(mid) / len(mid)
        )
        queue_ms = [
            (self.latency[i] - wall) * 1000.0
            for i, wall in self.batch_wall.items()
            if self.status[i] == "ok"
        ]
        return {
            "name": phase.name,
            "rate": phase.rate,
            "clients": 1 if phase.closed else 0,
            "n": len(sent),
            "ok": ok,
            "shed": self.status.count("shed"),
            "expired": self.status.count("expired"),
            "failed": self.status.count("failed"),
            "wrong": len(self.wrong),
            **self._latencies(sent, False, finished - start),
            "ref": self._latencies(sent, True, 0.0) if self.took else None,
            "offered_rps": len(sent) / (last_send - start)
            if last_send > start else 0.0,
            "lag_p99_ms": percentile(self.lag, 99.0) * 1000.0
            if self.lag else 0.0,
            "inflight_at_end": end_inflight,
            "drain_s": finished - (start + phase.seconds),
            "backlog_growing": growing,
            "queue_ms": queue_ms,
        }


async def _request(
    service: CompileService, run: _PhaseRun, i: int, item: tuple,
    due: float, oracle: Dict[str, str], check: set,
    rec: Optional[trace.Recorder], links: Dict[int, int],
) -> None:
    """Send request ``i`` of the phase, due at ``due``, and check the
    answer."""
    arrival = run.phase.arrivals[i]
    options = inputs.SERVICE_OPTIONS[arrival.variant.options]
    try:
        result = await service.compile([item], options, deadline=DEADLINE_S)
    except ServiceOverloaded:
        run.status[i] = "shed"
        return
    except DeadlineExceeded:
        run.status[i] = "expired"
        return
    except Exception as exc:  # reported as a failed operation
        run.status[i] = "failed"
        run.errors.append(f"{arrival.variant.key}: {exc!r}")
        return
    finally:
        run.inflight -= 1
    done = time.perf_counter()
    run.latency[i] = done - due
    run.status[i] = "ok"
    if rec is not None:
        op = rec.add("op.request", due, done, f"{run.phase.name}-{i}")
        batch = rec.batch_of.get(id(result.program))
        if batch is not None:
            links[op] = batch
            span = rec.spans[batch]
            run.batch_wall[i] = span[2] - span[1]
    fingerprint = result.program.executable.fingerprint()
    if arrival.pooled:
        if fingerprint != oracle[arrival.variant.key]:
            run.wrong.append(
                f"{arrival.variant.key}: served {fingerprint}, "
                f"compile_program gives {oracle[arrival.variant.key]}"
            )
    elif i in check:
        run.fingerprints[i] = fingerprint


async def _run_phase(
    service: CompileService, run: _PhaseRun, items: List[tuple],
    oracle: Dict[str, str], check: set, rec: Optional[trace.Recorder],
    links: Dict[int, int],
) -> Dict:
    phase = run.phase
    clock = time.perf_counter
    start = clock() + 0.02
    last_send = start

    def send(i: int, due: float):
        nonlocal last_send
        last_send = clock()
        run.inflight += 1
        run.backlog.append([last_send - start, run.inflight])
        return _request(
            service, run, i, items[i], due, oracle, check, rec, links
        )

    await asyncio.sleep(max(0.0, start - clock()))
    if phase.closed:
        # one client sends each request when its last one returns, until
        # the phase's time is up; the speed kernel runs between requests,
        # while nothing is in flight
        end = start + phase.seconds
        run.window = service.batch_window
        speed = Speedometer()
        speed.sample()
        for i in range(len(phase.arrivals)):
            t0 = clock()
            if t0 >= end:
                break
            await send(i, t0)
            t1 = clock()
            speed.sample()
            run.took[i] = t1 - t0
            run.factor[i] = speed.factor(t0, t1)
        return run.report(start, clock(), last_send)

    tasks = []
    for i, arrival in enumerate(phase.arrivals):
        due = start + arrival.due
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.get_running_loop().create_task(send(i, due)))
        run.lag.append(last_send - due)
    delay = start + phase.seconds - clock()
    if delay > 0:
        await asyncio.sleep(delay)
    run.backlog.append([clock() - start, run.inflight])
    await asyncio.gather(*tasks)
    return run.report(start, clock(), last_send)


def _service_segment(
    phases: List[inputs.Phase], items: List[List[tuple]],
    store: str, oracle: Dict[str, str], checks: List[set],
    rec: Optional[trace.Recorder] = None,
):
    links: Dict[int, int] = {}
    runs = [_PhaseRun(phase) for phase in phases]

    async def drive():
        service = CompileService(O3_SW, store_path=store, max_workers=2)
        reports = []
        for run, phase_items, check in zip(runs, items, checks):
            reports.append(await _run_phase(
                service, run, phase_items, oracle, check, rec, links
            ))
        await service.join(drain=True, deadline=DEADLINE_S)
        return reports, service.stats.to_dict()

    reports, stats = asyncio.run(drive())
    return runs, reports, stats, links


def task_service_zipf(p: Dict) -> Dict:
    sources = inputs.suite()
    pool = inputs.service_pool(p["seed"])
    seconds = p["seconds"] / 2.0 if p["trace"] else p["seconds"]
    phases = inputs.service_phases(p["seed"], seconds, pool)
    oracle = json.loads(Path(p["oracle"]).read_text())
    texts = {v.key: ("main", v.source(sources)) for v in pool}
    items = []
    checks = []
    for phase in phases:
        items.append([
            texts[a.variant.key] if a.pooled
            else ("main", a.variant.source(sources))
            for a in phase.arrivals
        ])
        # the phase's first fresh edits (the schedule is seeded)
        fresh = [i for i, a in enumerate(phase.arrivals) if not a.pooled]
        checks.append(set(fresh[:FRESH_CHECKS // len(phases)]))

    runs, reports, stats, _ = _service_segment(
        phases, items, p["store"], oracle, checks
    )
    out = {"phases": reports, "service": stats, "rss_mb": peak_rss_mb()}
    if p["trace"]:
        before = store_bytes(p["store_traced"])
        rec = trace.Recorder()
        undo = trace.instrument(rec)
        try:
            t_runs, t_reports, t_stats, links = _service_segment(
                phases, items, p["store_traced"], oracle, checks, rec
            )
        finally:
            undo()
        runs += t_runs
        layers, ops = trace.layer_metrics(
            rec, links, store_bytes(p["store_traced"]) - before
        )
        queue = [q for r in t_reports for q in r["queue_ms"]]
        layers["service.queue_wait_ms.p50"] = percentile(queue, 50.0)
        layers["service.queue_wait_ms.p99"] = percentile(queue, 99.0)
        layers["service.batch_size.mean"] = (
            sum(rec.batch_sizes) / len(rec.batch_sizes)
        )
        layers["service.dedup_ratio"] = (
            t_stats["deduped"] / t_stats["requests"]
        )
        layers["service.shed"] = t_stats["shed"]
        # per request of the closed loop, at the reference speed
        untraced, traced = (
            rs[-1]["ref"]["mean_ms"] for rs in (reports, t_reports)
        )
        layers["trace.overhead_s"] = (traced - untraced) / 1000.0
        layers["trace.overhead_ratio"] = traced / untraced - 1.0
        out["layers"] = layers
        out["traced_phases"] = t_reports
        trace.write(rec, Path(p["trace_path"]), ops)
    for r in out["phases"] + out.get("traced_phases", []):
        del r["queue_ms"]

    # the sampled fresh edits against throwaway compile_program sessions
    mismatches = [w for run in runs for w in run.wrong]
    errors = [e for run in runs for e in run.errors]
    for run in runs:
        for i, fingerprint in sorted(run.fingerprints.items()):
            variant = run.phase.arrivals[i].variant
            want = compile_program(
                variant.source(sources),
                inputs.SERVICE_OPTIONS[variant.options],
            ).executable.fingerprint()
            if fingerprint != want:
                mismatches.append(
                    f"{variant.key}: served {fingerprint}, compile_program "
                    f"gives {want}"
                )
    out["mismatches"] = mismatches
    out["errors"] = errors
    return out


TASKS = {
    "setup": task_setup,
    "compile-cold": task_compile_cold,
    "run-tier3": task_run_tier3,
    "service-zipf": task_service_zipf,
}


def main(argv: List[str]) -> int:
    task, params = argv[1], json.loads(argv[2])
    WORK.mkdir(exist_ok=True)
    emit(TASKS[task](params))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
