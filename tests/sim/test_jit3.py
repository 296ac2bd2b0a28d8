"""Tier-3 trace JIT unit tests: inlining and its bailouts, loop
linking, specialization guards (hit and miss), trap identity inside
inlined bodies, translation cache keying, the persistent artifact
round-trip, and the jit3 -> jit -> interp fault ladder."""

import tempfile

import pytest

from repro import faults
from repro.ir.arith import MachineTrap
from repro.pipeline.driver import compile_program
from repro.pipeline.options import O2, O3_SW
from repro.pipeline.profile import BlockProfile, attach_profile, \
    block_profile_of
from repro.sim import run_program, simulate
from repro.sim.jit import Jit3Options, Jit3Program, run_jit3
from repro.store.store import ArtifactStore, NS_JIT3
from repro.tools.reports import jit3_report

HOT_CALL = """
func add(a, b) { return a + b; }
func main() {
  var s = 0; var i;
  for (i = 0; i < 60; i = i + 1) { s = s + add(i, 3); }
  print(s);
  return 0;
}
"""


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.clear()


def build(src=HOT_CALL, options=O3_SW):
    prog = compile_program(src, options)
    profile = block_profile_of(prog)
    return prog.executable, profile


# -- inlining, loop linking, specialization ---------------------------------

def test_hot_call_is_inlined_and_loop_linked():
    exe, profile = build()
    ref = run_program(exe)
    stats = run_jit3(exe, profile=profile)
    assert stats == ref
    info = stats.jit3
    assert info["inlined_calls"] >= 1
    assert info["linked_returns"] >= 1
    assert info["linked_loops"] >= 1
    assert info["elided_syncs"] > 0


def test_specialization_guard_folds_constant_argument():
    # add() always sees b == 3: the profile proves it, the entry block
    # is specialized behind a guard
    exe, profile = build()
    assert profile.call_args["add"][1] == 3
    stats = run_jit3(exe, profile=profile)
    assert stats.jit3["spec_guards"] >= 1
    assert stats == run_program(exe)


def test_specialization_guard_miss_dispatches_to_twin():
    # a fabricated profile claiming a wrong constant: every guard must
    # miss at runtime and the unspecialized twin must run -- output and
    # stats stay bit-identical
    exe, profile = build()
    wrong = BlockProfile(
        dict(profile),
        call_args={"add": (999999, 999999, 0, 0)},
    )
    assert wrong.digest() != profile.digest()
    stats = run_jit3(exe, profile=wrong)
    assert stats.jit3["spec_guards"] >= 1
    assert stats == run_program(exe)


# -- inline-guard bailouts ---------------------------------------------------

def test_footprint_conflict_bails_out():
    exe, profile = build()
    stats = run_jit3(
        exe, profile=profile, opts=Jit3Options(max_trace_regs=1)
    )
    assert stats.jit3["inlined_calls"] == 0
    assert stats.jit3["bailouts"].get("footprint", 0) >= 1
    assert stats == run_program(exe)


def test_cold_call_is_not_inlined():
    exe, profile = build()
    stats = run_jit3(
        exe, profile=profile, opts=Jit3Options(hot_calls=10 ** 9)
    )
    assert stats.jit3["inlined_calls"] == 0
    assert stats.jit3["bailouts"].get("cold", 0) >= 1
    assert stats == run_program(exe)


INDIRECT = """
func g(x) { return x * 2; }
func main() {
  var p = &g; var s = 0; var i;
  for (i = 0; i < 40; i = i + 1) { s = s + p(i); }
  print(s);
  return 0;
}
"""


def test_indirect_call_bails_out():
    exe, profile = build(INDIRECT)
    stats = run_jit3(exe, profile=profile)
    assert stats.jit3["bailouts"].get("indirect_call", 0) >= 1
    assert stats == run_program(exe)


TRAPPING_CALLEE = """
func div(a, b) { return a / b; }
func main() {
  var s = 0; var i;
  for (i = 20; i >= %s; i = i - 1) { s = s + div(100, i); }
  print(s);
  return 0;
}
"""


def trapping_exe_with_profile():
    # the program traps at i == 0, so it cannot be profiled directly;
    # a non-trapping twin (identical shape, identical labels) supplies
    # the name-keyed profile that makes div() hot
    _, profile = build(TRAPPING_CALLEE % "1")
    exe = compile_program(TRAPPING_CALLEE % "0", O3_SW).executable
    return exe, profile


def test_trap_inside_inlined_body_is_identical():
    # div() is hot (inlined) and traps on the last iteration (i == 0):
    # the inlined trace must raise the interpreter's exact message
    exe, profile = trapping_exe_with_profile()
    with pytest.raises(MachineTrap) as interp:
        run_program(exe)
    with pytest.raises(MachineTrap) as jit3:
        run_jit3(exe, profile=profile)
    assert str(interp.value) == str(jit3.value)


def test_trap_inside_inlined_body_is_identical_strict():
    exe, profile = trapping_exe_with_profile()
    prog = Jit3Program(exe, profile=profile)
    assert prog.jit3_stats["inlined_calls"] >= 1
    with pytest.raises(MachineTrap, match="divide by zero"):
        prog.run()


def assert_budget_sweep_matches_interp(exe, run_tier3):
    """``run_tier3(budget)`` must finish or trap exactly as the
    interpreter does at every budget of a sweep of tight ones."""
    full = run_program(exe).cycles

    def outcome(run):
        try:
            s = run()
            return ("ok", s.cycles, s.instructions, tuple(s.output))
        except MachineTrap as e:
            return ("trap", str(e))

    for budget in (1, 7, 50, full - 2, full - 1, full, full + 1):
        interp = outcome(lambda: run_program(exe, max_cycles=budget))
        jit3 = outcome(lambda: run_tier3(budget))
        assert interp == jit3, f"budget {budget}: {interp} != {jit3}"


def test_budget_traps_are_identical_at_every_cycle_count():
    # the fast trace variants hoist all budget checks into one entry
    # test that deopts to a fully-guarded twin; a sweep of tight
    # budgets exercises both the deopt route and the twin's
    # per-instruction guards against the interpreter's exact behaviour
    exe, profile = build()
    assert_budget_sweep_matches_interp(
        exe,
        lambda budget: run_jit3(exe, profile=profile, max_cycles=budget),
    )


def test_budget_traps_are_identical_on_a_restored_translation():
    # the same sweep over translations restored from the store (marshal
    # -> exec, no translating) instead of freshly translated ones
    exe, profile = build()
    with tempfile.TemporaryDirectory(prefix="repro-jit3-") as tmp:
        store = ArtifactStore(tmp)

        def run_restored(budget):
            Jit3Program(exe, max_cycles=budget, profile=profile,
                        store=store)  # warms the store
            prog = restore_only(exe, store, profile=profile,
                                max_cycles=budget)
            assert prog.translation_from_store
            return prog.run()

        assert_budget_sweep_matches_interp(exe, run_restored)


def test_fast_variants_carry_a_guarded_twin(monkeypatch):
    exe, profile = build()
    sources = []
    real_compile = compile

    def capture(source, *args, **kwargs):
        sources.append(source)
        return real_compile(source, *args, **kwargs)

    monkeypatch.setattr("builtins.compile", capture)
    prog = Jit3Program(exe, profile=profile)
    monkeypatch.undo()
    source = "\n".join(sources)
    assert "def _g" in source           # deopt twins exist
    assert "return _g" in source        # ...and fast variants route there
    # the fast variants carry no per-instruction budget guards: every
    # "y + k > limit" test outside a twin is the single entry check
    for chunk in source.split("def ")[1:]:
        if chunk.startswith("_b") or chunk.startswith("_f"):
            guards = chunk.count(f"> {prog.max_cycles}")
            assert guards <= 1, chunk.splitlines()[0]


# -- caching and tier separation --------------------------------------------

def test_tier2_and_tier3_translations_never_collide():
    exe, profile = build()
    a = simulate(exe, sim_tier="jit")
    b = run_jit3(exe, profile=profile)
    assert a == b
    keys = set(exe._jit_cache)
    tags = sorted(k[0] for k in keys)
    assert tags == ["jit", "jit3"]


def test_profile_digest_is_part_of_the_cache_key():
    exe, profile = build()
    run_jit3(exe, profile=profile)
    run_jit3(exe, profile=None)
    tags = [k for k in exe._jit_cache if k[0] == "jit3"]
    assert len(tags) == 2


# -- persistent artifact round-trip -----------------------------------------

def test_translation_roundtrips_through_the_store():
    exe, profile = build()
    ref = run_program(exe)
    with tempfile.TemporaryDirectory(prefix="repro-jit3-") as tmp:
        store = ArtifactStore(tmp)
        first = Jit3Program(exe, profile=profile, store=store)
        stats1 = first.run()
        assert stats1 == ref
        assert store.get(NS_JIT3, first._store_key) is not None

        # a second translation of the same (exe, profile, params) must
        # restore from the store without translating anything
        second = restore_only(exe, store, profile=profile)
        assert second.translation_from_store
        assert set(second.table) == set(first.table)  # restored dispatch
        stats2 = second.run()
        assert stats2 == ref
        assert stats2.jit3["traces"] == stats1.jit3["traces"]


def _boom(*a, **kw):  # pragma: no cover - must never be called
    raise AssertionError("store hit should have skipped translation")


def restore_only(exe, store, **kwargs):
    """A :class:`Jit3Program` that must come from ``store``: translating
    anything raises."""
    prog = Jit3Program.__new__(Jit3Program)
    prog._translate_superblock = _boom  # type: ignore[attr-defined]
    Jit3Program.__init__(prog, exe, store=store, **kwargs)
    return prog


# -- the fault ladder --------------------------------------------------------

def test_jit3_fault_falls_down_the_ladder():
    exe, profile = build()
    ref = run_program(exe)
    for key in ("translate", "inline", "link"):
        fresh = compile_program(HOT_CALL, O3_SW).executable
        attach_profile(fresh, profile)
        plan = faults.FaultPlan(specs=[
            faults.FaultSpec(site=faults.SITE_JIT3, match=key, count=None)
        ])
        with faults.active(plan):
            stats = simulate(fresh, sim_tier="auto")
        assert stats == ref
        assert stats.sim_fallback is not None
        assert "jit3" in stats.sim_fallback
        assert plan.fired


def test_jit3_and_jit_faults_land_on_the_interpreter():
    exe, profile = build()
    ref = run_program(exe)
    fresh = compile_program(HOT_CALL, O3_SW).executable
    attach_profile(fresh, profile)
    plan = faults.FaultPlan(specs=[
        faults.FaultSpec(site=faults.SITE_JIT3, count=None),
        faults.FaultSpec(site=faults.SITE_JIT, count=None),
    ])
    with faults.active(plan):
        stats = simulate(fresh, sim_tier="auto")
    assert stats == ref
    assert "jit3" in stats.sim_fallback and "jit:" in stats.sim_fallback


# -- auto escalation and explicit tier --------------------------------------

def test_auto_escalates_when_a_profile_is_attached():
    prog = compile_program(HOT_CALL, O2)
    assert prog.run().jit3 is None          # no profile: tier 2
    block_profile_of(prog)                  # attaches as a side effect
    stats = prog.run()
    assert stats.jit3 is not None           # profile attached: tier 3
    assert stats == prog.run(sim_tier="interp")


def test_explicit_jit3_self_profiles():
    exe = compile_program(HOT_CALL, O2).executable
    stats = simulate(exe, sim_tier="jit3")
    assert stats.jit3 is not None
    assert stats == run_program(exe)
    assert getattr(exe, "_block_profile", None) is not None


LOOP_FOREVER = """
func main() {
  var i = 0;
  while (1) { i = i + 1; }
}
"""


def test_self_profile_honours_the_callers_budget():
    # the profiling run used to ignore max_cycles and run the default
    # 2e9-cycle budget; it must trap at the caller's budget, exactly as
    # the interpreter does
    exe = compile_program(LOOP_FOREVER, O2).executable
    with pytest.raises(MachineTrap) as interp:
        run_program(exe, max_cycles=10_000)
    with pytest.raises(MachineTrap) as jit3:
        simulate(exe, sim_tier="jit3", max_cycles=10_000)
    assert str(jit3.value) == str(interp.value)
    assert getattr(exe, "_block_profile", None) is None


def test_self_profile_uses_the_callers_stack_words(monkeypatch):
    import repro.pipeline.profile as profile_module

    seen = []
    real = profile_module.run_program

    def spy(exe, **kwargs):
        seen.append((kwargs["stack_words"], kwargs["max_cycles"]))
        return real(exe, **kwargs)

    monkeypatch.setattr(profile_module, "run_program", spy)
    exe = compile_program(HOT_CALL, O2).executable
    stats = simulate(exe, sim_tier="jit3", stack_words=512,
                     max_cycles=123_456)
    assert seen == [(512, 123_456)]
    assert stats == run_program(exe, stack_words=512, max_cycles=123_456)


def test_jit3_tier_rejects_interpreter_features():
    exe = compile_program("func main() {}", O2).executable
    with pytest.raises(ValueError, match="check_contracts"):
        simulate(exe, sim_tier="jit3", check_contracts=True)


# -- reporting ---------------------------------------------------------------

def test_jit3_report_renders_decisions():
    exe, profile = build()
    stats = run_jit3(exe, profile=profile)
    text = jit3_report(stats)
    assert "inlined calls" in text and "linked loops" in text
    assert "served from the store: profile no  translation no" in text
    assert jit3_report(stats.jit3) == text
    assert "no tier-3 data" in jit3_report(run_program(exe))


def test_engine_stats_collect_jit3_runs():
    from repro.engine.session import Compiler

    session = Compiler(O3_SW)
    prog = session.add_sources(HOT_CALL).compile()
    block_profile_of(prog)
    prog.run()
    assert len(session.stats.jit3_runs) == 1
    assert session.stats.jit3_runs[0]["traces"] >= 1
    assert session.stats.to_dict()["jit3_runs"]
