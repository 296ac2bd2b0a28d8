"""Engine + persistent store integration: warm starts are bit-identical
and every store failure mode is invisible in the output."""

import pytest

from repro import faults
from repro.benchsuite.registry import load_benchmarks
from repro.engine.core import Engine
from repro.interproc.allocator import FnPlan
from repro.pipeline.options import PAPER_CONFIGS, O2, O3_SW
from repro.store import StoredPlan
from repro.tools.warmstart import executable_digest

SRC = """
var g = 3;
func leaf(a) { return a + g; }
func mid(a) {
    if (a > 2) { return leaf(a) * 2; }
    return leaf(a - 1);
}
func main() { print mid(5) + leaf(1); return 0; }
"""


def _blobs(store):
    return [
        p for d in store.root.iterdir() if d.is_dir() and len(d.name) == 2
        for p in d.glob("*.blob")
    ]


def test_fresh_session_warm_start(tmp_path):
    cold = Engine(O3_SW, store_path=tmp_path)
    p_cold = cold.compile(SRC)
    warm = Engine(O3_SW, store_path=tmp_path)
    p_warm = warm.compile(SRC)

    assert executable_digest(p_warm.executable) == \
        executable_digest(p_cold.executable)
    rec = warm.stats.records[-1]
    for stage in ("frontend", "plan", "codegen"):
        assert rec.stages[stage].misses == 0, stage
        assert rec.stages[stage].hits == 3, stage
    assert rec.stages["store"].hits > 0
    assert rec.stages["store"].misses == 0
    assert p_warm.run().output == p_cold.run().output


def test_restored_functions_carry_their_true_fingerprint(tmp_path):
    """Front-end entries are stored with their fingerprint memoised; a warm
    process must see exactly what a fresh structural walk computes."""
    from repro.engine import fingerprint

    Engine(O3_SW, store_path=tmp_path).compile(SRC)
    program = Engine(O3_SW, store_path=tmp_path).compile(SRC)
    assert set(program.ir.functions) == {"leaf", "mid", "main"}
    for fn in program.ir.functions.values():
        stored = getattr(fn, fingerprint._FP_ATTR)
        delattr(fn, fingerprint._FP_ATTR)
        assert stored == fingerprint.function_fingerprint(fn)


def test_warm_plans_are_stubs_with_paired_artifacts(tmp_path):
    Engine(O3_SW, store_path=tmp_path).compile(SRC)
    warm = Engine(O3_SW, store_path=tmp_path)
    p = warm.compile(SRC)
    assert all(
        isinstance(plan, StoredPlan) for plan in p.plan.plans.values()
    )
    # the stub preserves exactly what dependants consumed
    ref = Engine(O3_SW).compile(SRC)
    for name, plan in ref.plan.plans.items():
        stub = StoredPlan.from_plan(plan)
        assert stub.saved_mask == plan.saved_mask
        assert stub.mode == plan.mode
        assert (stub.summary is None) == (plan.summary is None)


@pytest.mark.parametrize("config", sorted(PAPER_CONFIGS))
def test_warm_start_identity_all_paper_configs(tmp_path, config):
    benches = load_benchmarks()
    options = PAPER_CONFIGS[config]
    for name in ("nim", "map"):
        source = benches[name].source
        cold = Engine(options, store_path=tmp_path).compile(source)
        warm = Engine(options, store_path=tmp_path).compile(source)
        assert executable_digest(warm.executable) == \
            executable_digest(cold.executable), (name, config)


def test_store_read_corruption_recomputes(tmp_path):
    cold = Engine(O3_SW, store_path=tmp_path)
    p_cold = cold.compile(SRC)
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_STORE_READ, kind="corrupt",
                         count=3),
    ])
    warm = Engine(O3_SW, store_path=tmp_path)
    with faults.active(plan):
        p_warm = warm.compile(SRC)
    assert len(plan.fired) == 3
    assert warm.store.stats.corruptions == 3
    assert warm.stats.records[-1].cache_corruptions >= 3
    assert executable_digest(p_warm.executable) == \
        executable_digest(p_cold.executable)


def test_store_write_failures_are_silent(tmp_path):
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_STORE_WRITE, kind="raise",
                         count=None),
    ])
    engine = Engine(O3_SW, store_path=tmp_path)
    with faults.active(plan):
        p = engine.compile(SRC)
    assert engine.store.stats.write_failures > 0
    assert engine.store.stats.writes == 0
    assert executable_digest(p.executable) == \
        executable_digest(Engine(O3_SW).compile(SRC).executable)


def test_store_corruptions_are_counted_once(tmp_path):
    Engine(O3_SW, store_path=tmp_path).compile(SRC)
    warm = Engine(O3_SW, resilient=True, store_path=tmp_path)
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_STORE_READ, kind="corrupt",
                         count=1),
    ])
    with faults.active(plan):
        warm.compile(SRC)
    assert len(plan.fired) == 1
    clean = [warm.compile(SRC) for _ in range(2)]
    assert [r.cache_corruptions for r in warm.stats.records] == [1, 0, 0]
    assert warm.stats.fault_totals()["cache_corruptions"] == 1
    assert clean[-1].report.cache_corruptions == 0


def _flip_a_byte(blob):
    data = bytearray(blob.read_bytes())
    data[len(data) // 2] ^= 0xFF
    blob.write_bytes(bytes(data))


def test_scrub_quarantines_are_not_booked_to_the_next_compile(tmp_path):
    engine = Engine(O3_SW, store_path=tmp_path)
    engine.compile(SRC)
    blobs = sorted(_blobs(engine.store))
    _flip_a_byte(blobs[0])
    assert engine.store.scrub()["quarantined"] == 1
    engine.compile(SRC)                  # served from memory: no reads
    assert [r.cache_corruptions for r in engine.stats.records] == [0, 0]
    assert engine.store.stats.corruptions == 1
    assert engine.store.stats.read_corruptions == 0

    # a read that meets a corrupt blob still books it, exactly once
    _flip_a_byte(blobs[1])
    warm = Engine(O3_SW, store_path=tmp_path)
    warm.compile(SRC)
    warm.compile(SRC)
    assert [r.cache_corruptions for r in warm.stats.records] == [1, 0]
    assert warm.store.stats.read_corruptions == 1


def test_shared_store_handle_counts_only_this_engines_traffic(tmp_path):
    cold = Engine(O3_SW, store_path=tmp_path)
    cold.compile(SRC)
    assert cold.stats.records[-1].stages["store"].misses > 0
    # a second engine over the same handle starts its store deltas from
    # the handle's counters
    warm = Engine(O3_SW, store_path=cold.store)
    warm.compile(SRC)
    rec = warm.stats.records[-1]
    assert rec.stages["store"].misses == 0
    assert rec.stages["store"].hits > 0


ARRAY_SRC = """
array a[4];
func leaf(i) { a[i] = i * 3; return a[i] + 1; }
func main() { print leaf(2); return 0; }
"""

# the same `leaf` (same plan key) in a program with one more array, so
# its codegen key (plan key, program arrays) is new everywhere
WIDER_SRC = """
array a[4];
array b[9];
func leaf(i) { a[i] = i * 3; return a[i] + 1; }
func main() { b[1] = leaf(3); print b[1]; return 0; }
"""


def test_broken_pairing_replans_without_store(tmp_path, monkeypatch):
    from repro.engine import core

    replanned = []

    class Spy(core._ReplanWithoutStore):
        def __init__(self, name):
            replanned.append(name)
            super().__init__(name)

    monkeypatch.setattr(core, "_ReplanWithoutStore", Spy)
    Engine(O3_SW, store_path=tmp_path).compile(ARRAY_SRC)
    warm = Engine(O3_SW, store_path=tmp_path)
    p1 = warm.compile(ARRAY_SRC)
    assert isinstance(p1.plan.plans["leaf"], StoredPlan)

    # the stub's plan key hits in memory, but its codegen artifact under
    # the wider program's arrays exists neither in memory nor on disk
    p2 = warm.compile(WIDER_SRC)
    assert replanned == ["leaf"]
    # the affected procedure was replanned from scratch...
    assert isinstance(p2.plan.plans["leaf"], FnPlan)
    # ...and the output matches a storeless build
    assert executable_digest(p2.executable) == \
        executable_digest(Engine(O3_SW).compile(WIDER_SRC).executable)


def test_pairing_enforced_at_lookup(tmp_path):
    """A plan stub whose codegen artifact is missing on disk must be
    ignored at plan time (no stub ever reaches codegen unpaired)."""
    import pickle

    cold = Engine(O3_SW, store_path=tmp_path)
    cold.compile(SRC)
    # drop only the codegen artifacts -- the (AsmFunction, mask) tuples
    removed = 0
    for blob in _blobs(cold.store):
        data = blob.read_bytes()
        payload = data[data.find(b"\n", len(b"repro-store:1\n")) + 1:]
        try:
            value = pickle.loads(payload)
        except Exception:
            continue
        if isinstance(value, tuple) and len(value) == 2:
            blob.unlink()   # (AsmFunction, preserved_mask) artifacts
            removed += 1
    assert removed == 3

    warm = Engine(O3_SW, store_path=tmp_path)
    p = warm.compile(SRC)
    # stubs were unusable: full plans were recomputed
    assert all(
        not isinstance(plan, StoredPlan) for plan in p.plan.plans.values()
    )
    assert executable_digest(p.executable) == \
        executable_digest(Engine(O3_SW).compile(SRC).executable)


def test_compile_batch_with_store(tmp_path):
    engine = Engine(O2, store_path=tmp_path)
    sources = [SRC, SRC.replace("5", "7"),
               "func main() { print 42; return 0; }"]
    results = engine.compile_batch(sources)
    assert [r.run().output for r in results] == [[20], [24], [42]]
    solo = Engine(O2)
    for src, batched in zip(sources, results):
        assert executable_digest(batched.executable) == \
            executable_digest(solo.compile(src).executable)
    # one record per request, each with the store stage populated
    assert len(engine.stats.records) == 3
    assert sum(
        r.stages["store"].lookups for r in engine.stats.records
    ) > 0


def test_batch_isolates_per_request_failures(tmp_path):
    engine = Engine(O2, store_path=tmp_path)
    results = engine.compile_batch([
        SRC,
        "func notmain() { return 1; }",   # no entry point
        "func main() { print 1; return 0; }",
    ])
    assert not isinstance(results[0], Exception)
    assert isinstance(results[1], Exception)
    assert not isinstance(results[2], Exception)


def test_store_disabled_engine_untouched(tmp_path):
    engine = Engine(O2)
    assert engine.store is None
    p = engine.compile(SRC)
    rec = engine.stats.records[-1]
    assert rec.stages["store"].lookups == 0
    assert rec.stages["store"].seconds == 0.0
    assert p.run().output == [20]
