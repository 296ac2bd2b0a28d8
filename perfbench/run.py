#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads behind one command.

Usage::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 16 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

``compile-cold``
    closed loop of 78 whole-program compiles (13 suite programs x the
    paper's six configs), each through a fresh storeless ``Compiler``;
    nothing runs.
``run-tier3``
    in a fresh process, source to ``RunStats`` on tier 3 for every suite
    program at ``O3_SW``, over a store that set-up warmed.
``service-zipf``
    one ``CompileService``: an open loop of Poisson arrivals at a
    ``nominal`` and a ``peak`` rate, then a closed loop of one client
    (its end-to-end metrics); 80% Zipf-popular warm variants and 20%
    fresh one-procedure edits.

Times are reported at a fixed reference speed of the host.  A shared
VM's speed drifts by up to 2x within a minute, so every child times a
fixed pure-Python kernel between the operations it measures (after each
compile, between two programs, between two requests of the service's
closed loop, and through each set-up) and scales each measured time by
the kernel's reference time over its measured time
(``common.Speedometer``); the service's batch window, a timer, is left
unscaled.  The rows print the unscaled times beside the scaled ones.
Memory and counts are not scaled, nor are the open-loop phases, whose
latency depends on the host's speed through queueing.

Each measured and set-up step runs in a child process (``work.py``).
The command prints one row per program (and per config for compiles)
and per service phase, then, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.  Any output that differs from
the golden results (``golden.json``) or from a direct
``compile_program`` makes the run incorrect and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    HERE, REF_SLICE_S, ROOT, SRC, WORK, geomean, median, percentile,
)

WORKLOADS = ("compile-cold", "run-tier3", "service-zipf")

#: set-ups per run; setup_s is their median (the workloads that warm a
#: store set up twice: warming the tier-3 store costs a whole cold suite
#: run)
SETUPS = {"compile-cold": 5, "run-tier3": 2, "service-zipf": 2}

#: run-tier3 measures at least this many fresh processes, even when
#: ``--seconds`` are up before: each program's time is its mean over
#: them, and two leave it too noisy on a slow host
MIN_PROCESSES = 3

#: the whole run, children included, must end within this many seconds
TIME_LIMIT_S = 175.0


class Run:
    """One benchmark invocation: its arguments, scratch directory and
    time budget, and the children it spawns."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.work = WORK / f"{args.workload}-{os.getpid()}"
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, task: str, **params) -> Dict:
        """Run one ``work.py`` task to completion and return its result.
        ``subprocess.run`` kills and reaps the child on timeout."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("benchmark time budget exhausted")
        # perf_counter is CLOCK_MONOTONIC on Linux, shared by every
        # process, so the child can time its set-up from here
        params["spawned"] = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "work.py"), task, json.dumps(params)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"work.py {task} exited {proc.returncode}:\n"
                f"{proc.stderr[-4000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setups(self, params: List[Dict]) -> List[Dict]:
        """One set-up child per entry of ``params``."""
        return [
            self.spawn(
                "setup", workload=self.args.workload, seed=self.args.seed,
                **extra
            )
            for extra in params
        ]

    def trace_path(self) -> str:
        return str(
            WORK / "traces" / f"{self.args.workload}-seed{self.args.seed}"
        )


# -- workloads ----------------------------------------------------------------
#
# Each returns (result, rows): ``result`` holds attempted/failed counts,
# mismatches and either the end-to-end or the per-layer metric values.

def compile_cold(run: Run):
    args = run.args
    setups = run.setups([{}] * (1 if args.trace else SETUPS[args.workload]))
    m = run.spawn(
        "compile-cold", seed=args.seed, seconds=args.seconds,
        trace=args.trace, trace_path=run.trace_path(),
    )
    cells: Dict[str, Dict[str, List[float]]] = {}
    for program, config, ms in m["ops"]:
        cells.setdefault(program, {}).setdefault(config, []).append(ms)
    configs = list(next(iter(cells.values())))
    # each cell's median over the iterations, so a one-off pause in one
    # iteration does not set the tail
    cell_ms = [median(v) for by_config in cells.values()
               for v in by_config.values()]
    rows = [
        f"compile-cold: {len(m['walls'])} iteration(s) of "
        f"{m['per_iteration']} compiles; walls "
        f"{', '.join(f'{w:.2f}' for w in m['raw_walls'])} s, at the "
        f"reference speed {', '.join(f'{w:.2f}' for w in m['walls'])} s "
        f"(speed-kernel slice {m['slice_ms']:.2f} ms, reference "
        f"{REF_SLICE_S * 1000:.2f} ms)",
        "  median ms per compile at the reference speed",
        "  " + f"{'program':<10}" + "".join(f"{c:>9}" for c in configs),
    ]
    for program in sorted(cells):
        rows.append("  " + f"{program:<10}" + "".join(
            f"{median(cells[program][c]):9.1f}" for c in configs
        ))
    ratios = {
        c: geomean(median(cells[p][c]) / median(cells[p]["base"])
                   for p in cells)
        for c in configs
    }
    rows.append("  geomean ratio to base: " + "  ".join(
        f"{c} {ratio:.3f}" for c, ratio in ratios.items()
    ))
    rows.append(
        f"  over the {len(cell_ms)} cells' medians: p50 "
        f"{percentile(cell_ms, 50.0):.1f} p90 {percentile(cell_ms, 90.0):.1f}"
        f" p99 {percentile(cell_ms, 99.0):.1f} ms"
    )
    rows.append(f"  code.text_words {m['text_words']} (78 executables)")
    failed = len(m["errors"]) + len(m["mismatches"])
    result = {
        "attempted": m["attempted"], "failed": failed,
        "mismatches": m["mismatches"], "errors": m["errors"],
    }
    result["setups"] = setups
    if args.trace:
        result["layers"] = m["layers"]
    else:
        result["metrics"] = {
            "setup_s": median([s["setup_s"] for s in setups]),
            "peak_rss_mb": m["rss_mb"],
            "ok_ratio": (m["attempted"] - failed) / m["attempted"],
            "goodput_ops_s": m["per_iteration"] / median(m["walls"]),
            "latency_p50_ms": percentile(cell_ms, 50.0),
            "latency_p90_ms": percentile(cell_ms, 90.0),
        }
    return result, rows


def run_tier3(run: Run):
    args = run.args
    count = 1 if args.trace else SETUPS[args.workload]
    stores = [str(run.work / f"store{i}") for i in range(count)]
    setups = run.setups([{"store": store} for store in stores])
    iterations = []
    started = time.monotonic()
    while True:
        iterations.append(run.spawn(
            "run-tier3", seed=f"{args.seed}.{len(iterations)}",
            store=stores[0], trace=0,
        ))
        if args.trace or (
            len(iterations) >= MIN_PROCESSES
            and time.monotonic() - started >= args.seconds
        ):
            break
    if args.trace:
        traced = run.spawn(
            "run-tier3", seed=f"{args.seed}.0", store=stores[0], trace=1,
            trace_path=run.trace_path(),
        )
    # ops are [program, ms at the reference speed, ms]
    walls = [sum(op[1] for op in it["ops"]) / 1000.0 for it in iterations]
    raw_walls = [
        sum(op[2] for op in it["ops"]) / 1000.0 for it in iterations
    ]
    per_program: Dict[str, List[float]] = {}
    for it in iterations:
        for program, ms, _ in it["ops"]:
            per_program.setdefault(program, []).append(ms)
    # each program's mean over the processes: with two or three samples
    # a median would drop most of them
    mean_ms = {name: sum(v) / len(v) for name, v in per_program.items()}
    program_ms = list(mean_ms.values())
    runs = iterations[0]["runs"]
    rows = [
        f"run-tier3: {len(iterations)} fresh process(es), suite walls "
        f"{', '.join(f'{w:.2f}' for w in raw_walls)} s, at the reference "
        f"speed {', '.join(f'{w:.2f}' for w in walls)} s (speed-kernel "
        "slice " + ", ".join(f"{it['slice_ms']:.2f}" for it in iterations)
        + f" ms, reference {REF_SLICE_S * 1000:.2f} ms)",
        "  program times at the reference speed",
        f"  {'program':<10}{'mean ms':>10}{'cycles':>11}"
        f"{'scalar':>9}{'save/rest':>10}{'ns/cycle':>9}",
    ]
    ns_per_cycle = {}
    for program in sorted(per_program):
        r = runs[program]
        ms = mean_ms[program]
        ns_per_cycle[program] = ms * 1e6 / r["cycles"]
        rows.append(
            f"  {program:<10}{ms:10.1f}{r['cycles']:11d}"
            f"{r['scalar_memops']:9d}{r['save_restore_memops']:10d}"
            f"{ns_per_cycle[program]:9.2f}"
        )
    rows.append(f"  geomean ns/cycle {geomean(ns_per_cycle.values()):.3f}")
    rows.append(
        f"  over the {len(program_ms)} programs' means: p50 "
        f"{percentile(program_ms, 50.0):.1f} p90 "
        f"{percentile(program_ms, 90.0):.1f} p99 "
        f"{percentile(program_ms, 99.0):.1f} ms"
    )
    rows.append("  " + "  ".join(
        f"code.{key} {sum(r[key] for r in runs.values())}"
        for key in ("cycles", "scalar_memops", "save_restore_memops")
    ))
    everything = iterations + ([traced] if args.trace else [])
    attempted = sum(it["attempted"] for it in everything)
    failed = sum(
        len(it["errors"]) + len(it["mismatches"]) for it in everything
    )
    result = {
        "attempted": attempted, "failed": failed,
        "mismatches": [x for s in setups for x in s["mismatches"]]
        + [x for it in everything for x in it["mismatches"]],
        "errors": [x for it in everything for x in it["errors"]],
    }
    result["setups"] = setups
    if args.trace:
        layers = dict(traced["layers"])
        # at the reference speed, against the first untraced process
        traced_wall = sum(op[1] for op in traced["ops"]) / 1000.0
        layers["trace.overhead_s"] = traced_wall - walls[0]
        layers["trace.overhead_ratio"] = traced_wall / walls[0] - 1.0
        result["layers"] = layers
    else:
        result["metrics"] = {
            "setup_s": median([s["setup_s"] for s in setups]),
            "peak_rss_mb": median([it["rss_mb"] for it in iterations]),
            "ok_ratio": (attempted - failed) / attempted,
            "goodput_ops_s": len(runs) / median(walls),
            "latency_p50_ms": percentile(program_ms, 50.0),
            "latency_p90_ms": percentile(program_ms, 90.0),
        }
    return result, rows


def service_zipf(run: Run):
    args = run.args
    # a traced run gives the second store to its traced segment
    stores = [
        str(run.work / f"store{i}") for i in range(SETUPS[args.workload])
    ]
    oracle = str(run.work / "oracle.json")
    # the first set-up also records the reference answers
    setups = run.setups([
        {"store": store, "oracle": oracle if i == 0 else None}
        for i, store in enumerate(stores)
    ])
    m = run.spawn(
        "service-zipf", seed=args.seed, seconds=args.seconds,
        trace=args.trace, store=stores[0], oracle=oracle,
        store_traced=stores[-1], trace_path=run.trace_path(),
    )
    rows = [f"service-zipf: {json.dumps(m['service'], sort_keys=True)}"]
    phases = m["phases"] + m.get("traced_phases", [])
    for i, ph in enumerate(phases):
        tag = " (traced)" if i >= len(m["phases"]) else ""
        load = (
            "1 client" if ph["clients"]
            else f"{ph['rate']:.0f}/s"
        )
        rows.append(
            f"  {ph['name']}{tag} ({load}): n {ph['n']} ok "
            f"{ph['ok']} shed {ph['shed']} expired {ph['expired']} failed "
            f"{ph['failed']} wrong {ph['wrong']} | p50 {ph['p50_ms']:.1f} "
            f"p90 {ph['p90_ms']:.1f} p99 {ph['p99_ms']:.1f} ms | goodput "
            f"{ph['goodput_rps']:.1f}/s "
            f"offered {ph['offered_rps']:.1f}/s | lag p99 "
            f"{ph['lag_p99_ms']:.1f} ms | in flight at end "
            f"{ph['inflight_at_end']} drain {ph['drain_s']:.2f} s"
            + (" | BACKLOG GROWING: latency is not a steady-state figure"
               if ph["backlog_growing"] else "")
        )
        if ph["ref"]:
            ref = ph["ref"]
            rows.append(
                f"    at the reference speed: p50 {ref['p50_ms']:.1f} p90 "
                f"{ref['p90_ms']:.1f} p99 {ref['p99_ms']:.1f} ms | goodput "
                f"{ref['goodput_rps']:.1f}/s"
            )
    attempted = sum(ph["n"] for ph in phases)
    failed = sum(ph["n"] - ph["ok"] + ph["wrong"] for ph in phases)
    result = {
        "attempted": attempted, "failed": failed,
        "mismatches": m["mismatches"], "errors": m["errors"],
    }
    result["setups"] = setups
    nominal, peak, closed = m["phases"]
    if args.trace:
        layers = dict(m["layers"])
        layers["driver.lag_ms.p99"] = max(
            nominal["lag_p99_ms"], peak["lag_p99_ms"]
        )
        layers["driver.offered_rps"] = peak["offered_rps"]
        result["layers"] = layers
    else:
        result["metrics"] = {
            "setup_s": median([s["setup_s"] for s in setups]),
            "peak_rss_mb": m["rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
            # the closed loop (half the run) at the reference speed; the
            # open-loop phases are reported in their rows
            "goodput_ops_s": closed["ref"]["goodput_rps"],
            "latency_p50_ms": closed["ref"]["p50_ms"],
            "latency_p90_ms": closed["ref"]["p90_ms"],
        }
    return result, rows


RUNNERS = {
    "compile-cold": compile_cold,
    "run-tier3": run_tier3,
    "service-zipf": service_zipf,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"error: {SRC / 'repro'} and {spec_path} are required; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        result, rows = RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    for row in rows:
        print(row)
    if result.get("setups"):
        print(
            "set-up: " + ", ".join(
                f"{s['setup_raw_s']:.3f}" for s in result["setups"]
            ) + " s, at the reference speed " + ", ".join(
                f"{s['setup_s']:.3f}" for s in result["setups"]
            ) + " s"
        )
    for line in result["mismatches"]:
        print(f"MISMATCH {line}", file=sys.stderr)
    for line in result["errors"]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
        print(f"trace files: {run.trace_path()}.json, "
              f"{run.trace_path()}.chrome.json")
    else:
        values = result["metrics"]
        wanted = spec["end_to_end"]
    if args.trace and args.workload != "service-zipf":
        # only the open loop has service queueing and a generator
        for m in wanted:
            if m["name"].split(".", 1)[0] in ("service", "driver"):
                values.setdefault(m["name"], 0)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    correct = not result["mismatches"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
