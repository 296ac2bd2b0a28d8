"""Crash-recovery gate: SIGKILL a writer mid-publish; the store heals.

The artifact store's write protocol is *atomic publish*: the payload is
written to a shard-local temp file and then ``os.replace``-renamed onto
its content address.  The crash the protocol must survive is therefore
a writer dying **between** those two steps -- the window where a torn
artifact would live if publishing were not atomic.  This harness
manufactures exactly that crash, deterministically:

1. a **victim child process** arms a seeded ``hang`` fault inside the
   publish window (:data:`repro.faults.SITE_STORE_WRITE`, key
   ``publish:<ns>`` with the namespace drawn from the seed) and starts
   compiling the benchmark suite into a shared store;
2. the parent polls the store for the victim's in-flight ``*.tmp`` file
   and, once one has stayed for :data:`STALL_SECONDS` -- the victim is
   stalled mid-``put``, not publishing one of the puts before it --
   delivers a real ``SIGKILL``;
3. recovery must then show the store *self-heals*:

   * the reopened store **verifies clean**: no torn blob exists, only
     the orphaned temp the kill left behind;
   * ``scrub`` **reaps the orphan** and quarantines nothing;
   * a fresh process **warm-starts bit-identically**: compiling the
     suite against the survivor store yields executables identical to
     an undisturbed storeless reference compile, with store hits and
     zero corruptions.

CI runs this as a gate::

    PYTHONPATH=src python -m repro.tools.crashrecovery --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import faults
from repro.pipeline.options import PAPER_CONFIGS
from repro.store.store import NS_CODEGEN, NS_PLAN, ArtifactStore
from repro.tools.warmstart import _spawn_child, compile_suite

#: namespaces the seed may aim the mid-publish hang at (both are written
#: during every suite compile)
KILL_NAMESPACES = (NS_PLAN, NS_CODEGEN)

#: how long a temp file must persist to be the stalled publish: every
#: other put renames its temp away within milliseconds
STALL_SECONDS = 0.5


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))] +
        env.get("PYTHONPATH", "").split(os.pathsep) if p
    )
    return env


def _spawn_victim(store: str, configs: List[str],
                  names: Optional[List[str]], ns: str) -> subprocess.Popen:
    """Start the child that will stall mid-``put`` of namespace ``ns``."""
    cmd = [
        sys.executable, "-m", "repro.tools.crashrecovery",
        "--phase", "child", "--store", store, "--ns", ns,
        "--configs", *configs,
    ]
    if names:
        cmd += ["--names", *names]
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_child_env(),
    )


def _victim_main(store: str, configs: List[str],
                 names: Optional[List[str]], ns: str) -> int:
    """Child phase: hang for a long time inside the publish window of
    the first ``ns`` put, waiting for the parent's SIGKILL."""
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(
            site=faults.SITE_STORE_WRITE, kind="hang",
            match=f"publish:{ns}", hang_seconds=300.0, count=1,
        ),
    ])
    with faults.active(plan):
        report = compile_suite(store, configs, names)
    # reaching here means the fault never fired; tell the parent
    json.dump({"completed": True, "fired": plan.fired,
               "builds": len(report["digests"])}, sys.stdout)
    return 0


def run_crashrecovery(
    seed: int,
    configs: List[str],
    names: Optional[List[str]] = None,
    store_dir: Optional[str] = None,
    kill_timeout: float = 120.0,
    verbose: bool = True,
) -> List[str]:
    """Run the kill -> reopen -> scrub -> warm-start check; returns
    violation messages (empty = the gate passes)."""
    violations: List[str] = []
    ns = random.Random(seed).choice(KILL_NAMESPACES)
    ctx = (
        tempfile.TemporaryDirectory(prefix="repro-crashrec-")
        if store_dir is None else None
    )
    store = store_dir if store_dir is not None else ctx.name
    try:
        victim = _spawn_victim(store, configs, names, ns)
        stalled_tmp: Optional[Path] = None
        first_seen: Dict[Path, float] = {}
        deadline = time.monotonic() + kill_timeout
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            now = time.monotonic()
            for tmp in sorted(Path(store).glob("*/*.tmp")):
                if now - first_seen.setdefault(tmp, now) >= STALL_SECONDS:
                    stalled_tmp = tmp
                    break
            if stalled_tmp is not None:
                break
            time.sleep(0.01)

        if victim.poll() is not None:
            out, err = victim.communicate()
            violations.append(
                f"victim exited ({victim.returncode}) before the kill "
                f"window opened: hang at publish:{ns} never fired "
                f"(stdout={out!r})"
            )
        elif stalled_tmp is None:
            victim.kill()
            victim.communicate()
            violations.append(
                f"no in-flight temp file appeared within {kill_timeout}s"
            )
        else:
            victim.send_signal(signal.SIGKILL)
            victim.communicate()
            if victim.returncode != -signal.SIGKILL:
                violations.append(
                    f"victim exit status {victim.returncode} is not "
                    f"SIGKILL ({-signal.SIGKILL})"
                )

        orphans = sorted(Path(store).glob("*/*.tmp"))
        if stalled_tmp is not None and not orphans:
            violations.append(
                "SIGKILL mid-publish left no orphaned temp file"
            )
        if verbose:
            print(f"kill        ns={ns} orphaned-temps={len(orphans)}")

        # 1. reopen: the atomic-rename protocol cannot have torn a blob
        survivor = ArtifactStore(store)
        report = survivor.verify(remove=False)
        if report["corrupt"]:
            violations.append(
                f"reopened store has {report['corrupt']} corrupt "
                f"entries after the crash: {report['corrupt_entries']}"
            )
        if verbose:
            print(f"verify      checked={report['checked']} "
                  f"corrupt={report['corrupt']}")

        # 2. scrub: the orphan is reaped, nothing is quarantined
        scrub = survivor.scrub(orphan_age_seconds=0.0, resume=False)
        if scrub["quarantined"]:
            violations.append(
                f"scrub quarantined {scrub['quarantined']} entries in a "
                "store that only ever lost a writer mid-publish"
            )
        if orphans and scrub["reaped"] < len(orphans):
            violations.append(
                f"scrub reaped {scrub['reaped']} of {len(orphans)} "
                "orphaned temps"
            )
        leftover = sorted(Path(store).glob("*/*.tmp"))
        if leftover:
            violations.append(
                f"temp files survived the scrub: "
                f"{[str(p) for p in leftover]}"
            )
        if verbose:
            print(f"scrub       checked={scrub['checked']} "
                  f"reaped={scrub['reaped']} "
                  f"quarantined={scrub['quarantined']}")

        # 3. warm-start identity: the survivor store serves a fresh
        # process artifacts bit-identical to an undisturbed reference
        ref = _spawn_child(None, configs, names)
        warm = _spawn_child(store, configs, names)
        if ref["digests"] != warm["digests"]:
            diff = [
                k for k in ref["digests"]
                if ref["digests"].get(k) != warm["digests"].get(k)
            ]
            violations.append(
                f"warm-start from the crashed store is not bit-identical "
                f"to the reference for {diff}"
            )
        st = warm["store"] or {}
        if st.get("corruptions"):
            violations.append(
                f"warm-start detected {st['corruptions']} corruptions "
                "in the survivor store"
            )
        if not st.get("hits"):
            violations.append(
                "warm-start took no hits from the survivor store (the "
                "victim's completed puts should have survived)"
            )
        if verbose:
            print(
                f"warm-start  builds={len(warm['digests'])} "
                f"hits={st.get('hits', 0)} "
                f"identical={ref['digests'] == warm['digests']}"
            )
    finally:
        if ctx is not None:
            ctx.cleanup()

    if verbose:
        print(f"crash-recovery: {len(violations)} violations")
    return violations


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="kill-mid-put crash-recovery gate for the artifact "
                    "store"
    )
    parser.add_argument("--phase", choices=["drive", "child"],
                        default="drive")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--store", default=None,
                        help="store directory (default: a temp dir)")
    parser.add_argument("--configs", nargs="+", default=["C"],
                        choices=sorted(PAPER_CONFIGS))
    parser.add_argument("--names", nargs="*", default=None)
    parser.add_argument("--ns", default=NS_PLAN,
                        help="(child) namespace whose publish hangs")
    parser.add_argument("--kill-timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    if args.phase == "child":
        return _victim_main(args.store, args.configs, args.names, args.ns)

    violations = run_crashrecovery(
        args.seed, args.configs, args.names,
        store_dir=args.store, kill_timeout=args.kill_timeout,
    )
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
