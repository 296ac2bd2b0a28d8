"""Golden expected results for the benchmark, and the checks against them.

``golden.json`` beside this file records

* for every suite program, its output and its ``RunStats`` counts at
  ``O3_SW``, taken from the reference interpreter on the reference
  pipeline's executable and cross-checked identical on tiers 2 and 3;
* for every (program, paper config), the executable fingerprint and its
  instruction count, taken from the reference pipeline and
  cross-checked identical to the engine's ``compile_program``.

Every benchmark run checks its outputs against this file; a mismatch
fails the run.  Regenerate it (only when the compiler's output is meant
to change) with::

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from common import use_source_tree

use_source_tree()

from repro import O3_SW, PAPER_CONFIGS, RunStats, compile_program  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def stats_record(stats: RunStats) -> Dict:
    """The exact counts of one run, in a JSON-comparable form."""
    return {
        "output": list(stats.output),
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "calls": stats.calls,
        "branches": stats.branches,
        "scalar_memops": stats.scalar_memops,
        "save_restore_memops": stats.save_restore_memops,
        "loads": {k.name: n for k, n in stats.loads.items()},
        "stores": {k.name: n for k, n in stats.stores.items()},
    }


def load() -> Dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check_run(golden: Dict, program: str, stats: RunStats) -> List[str]:
    """Mismatches between one O3_SW run and the golden record."""
    want = golden["programs"][program]
    got = stats_record(stats)
    return [
        f"{program}: {key} is {got[key]!r}, golden {want[key]!r}"
        for key in want if got[key] != want[key]
    ]


def check_executable(
    golden: Dict, program: str, config: str, fingerprint: str
) -> List[str]:
    want = golden["executables"][program][config]["fingerprint"]
    if fingerprint != want:
        return [f"{program}/{config}: executable fingerprint {fingerprint} "
                f"differs from golden {want}"]
    return []


def generate() -> Dict:
    """Build the golden records from the reference pipeline and the
    reference interpreter, cross-checking every other path."""
    from repro.benchsuite import load_benchmarks
    from repro.pipeline.driver import _reference_compile_program

    programs: Dict[str, Dict] = {}
    executables: Dict[str, Dict[str, Dict]] = {}
    for name, bench in load_benchmarks().items():
        executables[name] = {}
        for config, options in PAPER_CONFIGS.items():
            ref = _reference_compile_program(bench.source, options)
            fingerprint = ref.executable.fingerprint()
            engine = compile_program(bench.source, options)
            if engine.executable.fingerprint() != fingerprint:
                raise SystemExit(
                    f"{name}/{config}: engine executable differs from the "
                    "reference pipeline's"
                )
            executables[name][config] = {
                "fingerprint": fingerprint,
                "text_words": len(ref.executable.instrs),
            }
        ref = _reference_compile_program(bench.source, O3_SW)
        interp = ref.run(sim_tier="interp")
        for tier in ("jit", "jit3"):
            if compile_program(bench.source, O3_SW).run(sim_tier=tier) \
                    != interp:
                raise SystemExit(
                    f"{name}: tier {tier} RunStats differ from the "
                    "reference interpreter's"
                )
        programs[name] = stats_record(interp)
    return {"programs": programs, "executables": executables}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate golden.json instead of checking it",
    )
    args = parser.parse_args(argv)
    fresh = generate()
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True)
                               + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    if fresh != load():
        print("golden.json does not match the reference pipeline",
              file=sys.stderr)
        return 1
    print("golden.json matches the reference pipeline on every tier")
    return 0


if __name__ == "__main__":
    sys.exit(main())
