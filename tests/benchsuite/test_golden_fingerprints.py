"""Bit-identity pin: every suite program at every paper configuration
compiles to exactly the executable recorded in ``perfbench/golden.json``.

The engine-vs-reference identity tests share the allocator with the
reference pipeline, so a change to allocation (or any pass both paths use)
that alters emitted code passes them.  This test compares against fixed
fingerprints instead.  It only reads the golden file; regenerate that with
``python3 perfbench/golden.py --write`` when output is meant to change.
"""

import json
from pathlib import Path

import pytest

from helpers import compile_cached

from repro.benchsuite import benchmark_names, load_benchmarks
from repro.pipeline import PAPER_CONFIGS

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[2] / "perfbench" / "golden.json")
    .read_text()
)["executables"]
BENCHES = load_benchmarks()


def test_golden_covers_the_suite_and_the_paper_configs():
    assert sorted(GOLDEN) == sorted(benchmark_names())
    for configs in GOLDEN.values():
        assert sorted(configs) == sorted(PAPER_CONFIGS)


@pytest.mark.parametrize("name", benchmark_names())
def test_executables_match_golden_fingerprints(name):
    for config, options in PAPER_CONFIGS.items():
        exe = compile_cached(BENCHES[name].source, options).executable
        want = GOLDEN[name][config]
        assert (exe.fingerprint(), len(exe.instrs)) == (
            want["fingerprint"], want["text_words"],
        ), f"{name} at config {config}"
