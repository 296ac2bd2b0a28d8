"""Warm-start acceptance check: two processes, one artifact store.

Process A compiles the benchmark suite against an empty store; a
*fresh* process B (no in-memory caches, only the disk store) compiles
the same suite and must

* hit the store at a configurable rate (default >= 80% of lookups),
* produce **bit-identical** executables to process A's, per benchmark
  and per paper configuration, and
* run the suite at config C on ``sim_tier="jit3"`` with ``RunStats``
  identical to process A's, every block profile and trace translation
  served from the store: no interpreter profiling run and no
  ``compile()`` call.

Both phases really are separate OS processes (``subprocess`` children of
the orchestrator), so nothing can leak between them except the store
directory.  CI runs this as a gate::

    PYTHONPATH=src python -m repro.tools.warmstart --configs base C E

The child protocol (``--phase child``) prints one JSON object:
``{"digests": {"bench:config": sha256}, "seconds": wall-clock compile
seconds, "store": counters, "stages": per-stage hit/miss totals}`` --
:mod:`benchmarks.bench_speed` reuses it to time genuinely cold
processes for the ``store_warm`` scenario.  The gate's own children
run ``--phase child-tier3``, whose report adds a ``"tier3"`` object
(see :func:`run_suite_tier3`).
"""

from __future__ import annotations

import argparse
import builtins
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import repro.pipeline.profile as profile_module
from repro.benchsuite.registry import load_benchmarks
from repro.engine.core import Engine
from repro.pipeline.options import PAPER_CONFIGS

#: the paper configuration whose suite the gate also runs on tier 3
TIER3_CONFIG = "C"


def executable_digest(exe) -> str:
    """Content hash of a linked executable image (bit-identity checks)."""
    parts = [repr(i) for i in exe.instrs]
    parts.append(str(exe.entry_pc))
    parts.append(repr(sorted(exe.func_entries.items())))
    parts.append(repr(sorted(exe.data_init.items())))
    parts.append(repr(sorted(exe.preserved_masks.items())))
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def compile_suite(
    store_path: Optional[str],
    configs: List[str],
    names: Optional[List[str]] = None,
) -> Dict:
    """Compile every (benchmark, config) pair in this process; returns
    the child-protocol report."""
    benches = load_benchmarks()
    selected = list(names) if names else list(benches)
    digests: Dict[str, str] = {}
    stages: Dict[str, Dict[str, int]] = {}
    store_counters: Optional[Dict] = None
    seconds = 0.0
    for config in configs:
        engine = Engine(PAPER_CONFIGS[config], store_path=store_path)
        for name in selected:
            source = benches[name].source
            t0 = time.perf_counter()
            built = engine.compile(source)
            seconds += time.perf_counter() - t0
            digests[f"{name}:{config}"] = executable_digest(
                built.executable
            )
        for stage, st in engine.stats.stage_totals().items():
            agg = stages.setdefault(stage, {"hits": 0, "misses": 0})
            agg["hits"] += st.hits
            agg["misses"] += st.misses
        if engine.store is not None:
            if store_counters is None:
                store_counters = engine.store.stats.to_dict()
            else:
                for k, v in engine.store.stats.to_dict().items():
                    store_counters[k] += v
    return {
        "digests": digests,
        "seconds": round(seconds, 6),
        "store": store_counters,
        "stages": stages,
    }


def run_record(stats) -> Dict:
    """The exact counts of one run, JSON-comparable (``RunStats``
    equality: everything but the ``compare=False`` diagnostics)."""
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "calls": stats.calls,
        "branches": stats.branches,
        "loads": {k.name: n for k, n in stats.loads.items()},
        "stores": {k.name: n for k, n in stats.stores.items()},
        "output": list(stats.output),
    }


@contextmanager
def _counted(owner, attr: str, counts: Dict[str, int], key: str):
    """Count the calls made to ``owner.attr`` inside the block."""
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counting)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def run_suite_tier3(
    store_path: Optional[str], names: Optional[List[str]] = None
) -> Dict:
    """Run every benchmark at :data:`TIER3_CONFIG` on ``sim_tier="jit3"``
    in this process.

    Returns ``{"runs": {bench: {"stats": run_record, "from_store":
    [profile, translation]}}, "profile_runs": n, "compile_calls": n,
    "store": counters}``.  The two call counts cover the runs only (not
    the compiles): interpreter profiling runs and ``compile()`` calls,
    both zero when a warm store serves tier 3's whole cold start.
    """
    benches = load_benchmarks()
    selected = list(names) if names else list(benches)
    engine = Engine(PAPER_CONFIGS[TIER3_CONFIG], store_path=store_path)
    built = {name: engine.compile(benches[name].source) for name in selected}
    counts = {"profile_runs": 0, "compile_calls": 0}
    runs: Dict[str, Dict] = {}
    with _counted(profile_module, "run_program", counts, "profile_runs"), \
            _counted(builtins, "compile", counts, "compile_calls"):
        for name in selected:
            stats = built[name].run(sim_tier="jit3")
            runs[name] = {
                "stats": run_record(stats),
                "from_store": [
                    stats.jit3["profile_from_store"],
                    stats.jit3["translation_from_store"],
                ],
            }
    return {
        "runs": runs,
        **counts,
        "store": engine.store.stats.to_dict() if engine.store else None,
    }


def _spawn_child(store: Optional[str], configs: List[str],
                 names: Optional[List[str]], tier3: bool = False) -> Dict:
    """Run :func:`compile_suite` (and, with ``tier3``,
    :func:`run_suite_tier3`) in a genuinely fresh OS process.

    ``store=None`` compiles storeless (the fully-cold reference the
    speed benchmark compares against).
    """
    cmd = [
        sys.executable, "-m", "repro.tools.warmstart",
        "--phase", "child-tier3" if tier3 else "child",
        "--configs", *configs,
    ]
    if store:
        cmd += ["--store", store]
    if names:
        cmd += ["--names", *names]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))] +
        env.get("PYTHONPATH", "").split(os.pathsep) if p
    )
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"warmstart child failed ({proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def run_warmstart(
    configs: List[str],
    names: Optional[List[str]] = None,
    min_hit_rate: float = 0.8,
    store_dir: Optional[str] = None,
    verbose: bool = True,
) -> List[str]:
    """Run the A/B warm-start check; returns violation messages."""
    violations: List[str] = []
    ctx = (
        tempfile.TemporaryDirectory(prefix="repro-warmstart-")
        if store_dir is None else None
    )
    store = store_dir if store_dir is not None else ctx.name
    try:
        a = _spawn_child(store, configs, names, tier3=True)
        b = _spawn_child(store, configs, names, tier3=True)
    finally:
        if ctx is not None:
            ctx.cleanup()

    if a["digests"] != b["digests"]:
        diff = [
            k for k in a["digests"]
            if a["digests"].get(k) != b["digests"].get(k)
        ]
        violations.append(
            f"warm-started builds differ from process A's for {diff}"
        )
    st = b["store"] or {"hits": 0, "misses": 0}
    lookups = st["hits"] + st["misses"]
    rate = st["hits"] / lookups if lookups else 0.0
    if rate < min_hit_rate:
        violations.append(
            f"process B store hit rate {rate:.1%} below the "
            f"{min_hit_rate:.0%} floor ({st['hits']}/{lookups})"
        )
    if st.get("corruptions"):
        violations.append(
            f"process B detected {st['corruptions']} corrupt entries in "
            "a store process A just wrote"
        )
    violations += _tier3_violations(a["tier3"], b["tier3"])
    if verbose:
        print(
            f"A: {len(a['digests'])} builds in {a['seconds']:.2f}s  "
            f"B: {b['seconds']:.2f}s  hit-rate={rate:.1%}  "
            f"identical={a['digests'] == b['digests']}"
        )
        t3 = b["tier3"]
        served = sum(all(r["from_store"]) for r in t3["runs"].values())
        print(
            f"tier 3 (config {TIER3_CONFIG}): B served {served}/"
            f"{len(t3['runs'])} runs from the store  "
            f"profile runs={t3['profile_runs']}  "
            f"compile() calls={t3['compile_calls']}"
        )
    return violations


def _tier3_violations(a: Dict, b: Dict) -> List[str]:
    """Process B's tier-3 runs must equal process A's and must have been
    served entirely from the store A warmed."""
    violations: List[str] = []
    differ = [
        name for name in a["runs"]
        if a["runs"][name]["stats"] != b["runs"].get(name, {}).get("stats")
    ]
    if differ:
        violations.append(
            f"process B's tier-3 RunStats differ from process A's for "
            f"{differ}"
        )
    unserved = [
        name for name, run in b["runs"].items() if not all(run["from_store"])
    ]
    if unserved:
        violations.append(
            f"process B did not take the tier-3 profile and translation "
            f"from the store for {unserved}"
        )
    if b["profile_runs"] or b["compile_calls"]:
        violations.append(
            f"process B's tier-3 runs made {b['profile_runs']} profiling "
            f"runs and {b['compile_calls']} compile() calls over a warm "
            "store (want 0 and 0)"
        )
    if (b["store"] or {}).get("corruptions"):
        violations.append(
            f"process B's tier-3 runs detected {b['store']['corruptions']} "
            "corrupt entries in a store process A just wrote"
        )
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="two-process warm-start identity and hit-rate gate"
    )
    parser.add_argument("--phase", choices=["drive", "child", "child-tier3"],
                        default="drive")
    parser.add_argument("--store", default=None,
                        help="store directory (default: a temp dir)")
    parser.add_argument("--configs", nargs="+", default=["C"],
                        choices=sorted(PAPER_CONFIGS))
    parser.add_argument("--names", nargs="*", default=None)
    parser.add_argument("--min-hit-rate", type=float, default=0.8)
    args = parser.parse_args(argv)

    if args.phase != "drive":
        report = compile_suite(args.store, args.configs, args.names)
        if args.phase == "child-tier3":
            report["tier3"] = run_suite_tier3(args.store, args.names)
        json.dump(report, sys.stdout)
        return 0

    violations = run_warmstart(
        args.configs, args.names, args.min_hit_rate, args.store
    )
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
