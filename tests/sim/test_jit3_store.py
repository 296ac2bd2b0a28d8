"""Tier 3 over the artifact store: the self-profile and the marshalled
whole-program translation are persisted, restored without profiling or
``compile()``, keyed so that a renamed label or another budget misses,
and quarantined then recomputed (with identical ``RunStats``) when an
entry is corrupt or does not decode."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.pipeline.profile as profile_module
from repro.ir.arith import MachineTrap
from repro.benchsuite.registry import load_benchmarks
from repro.pipeline.driver import compile_program
from repro.pipeline.options import O3_SW, PAPER_CONFIGS
from repro.pipeline.profile import BlockProfile, block_profile_of
from repro.sim import run_program, simulate
from repro.sim.jit import Jit3Program
from repro.sim.simulator import DEFAULT_MAX_CYCLES, DEFAULT_STACK_WORDS
from repro.store.store import NS_JIT3, NS_PROFILE, ArtifactStore
from repro.tools.warmstart import TIER3_CONFIG, run_record

HOT_CALL = """
func add(a, b) { return a + b; }
func main() {
  var s = 0; var i;
  for (i = 0; i < 60; i = i + 1) { s = s + add(i, 3); }
  print(s);
  return 0;
}
"""

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def fresh_exe(src=HOT_CALL):
    return compile_program(src, O3_SW).executable


def profile_key(exe, stack_words=DEFAULT_STACK_WORDS,
                max_cycles=DEFAULT_MAX_CYCLES):
    return (exe.fingerprint(), exe.label_digest(), stack_words, max_cycles)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def profile_runs(monkeypatch):
    """Counts interpreter profiling runs."""
    calls = []
    real = profile_module.run_program

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(profile_module, "run_program", counting)
    return calls


# -- the persisted profile ---------------------------------------------------

def test_self_profile_is_stored_and_served(store, profile_runs):
    exe = fresh_exe()
    first = simulate(exe, sim_tier="jit3", store=store)
    assert len(profile_runs) == 1
    assert first.jit3["profile_from_store"] is False
    stored = store.get(NS_PROFILE, profile_key(exe))
    assert BlockProfile.from_json(stored) == exe._block_profile

    # a fresh executable of the same program: no profiling run, the
    # same profile (digest included), identical RunStats
    again = fresh_exe()
    second = simulate(again, sim_tier="jit3", store=store)
    assert len(profile_runs) == 1
    assert second.jit3["profile_from_store"] is True
    assert second.jit3["translation_from_store"] is True
    assert again._block_profile.digest() == exe._block_profile.digest()
    assert second == first == run_program(exe)


def test_block_profile_of_accepts_a_program_or_an_executable(store):
    prog = compile_program(HOT_CALL, O3_SW)
    by_program = block_profile_of(prog, attach=False, store=store)
    by_exe = block_profile_of(fresh_exe(), attach=False, store=store)
    assert by_exe.from_store and not by_program.from_store
    assert by_exe == by_program
    assert by_exe.call_args == by_program.call_args


def test_renamed_label_misses_the_stored_profile(store, profile_runs):
    exe = fresh_exe()
    block_profile_of(exe, store=store)
    # same instructions, so the same fingerprint, but one block renamed:
    # the name-keyed profile of the original would be wrong for it
    label = next(name for name in exe.labels if "." in name)
    renamed = dict(exe.labels)
    renamed[label + "x"] = renamed.pop(label)
    copy = dataclasses.replace(exe, labels=renamed)
    assert copy.fingerprint() == exe.fingerprint()
    assert copy.label_digest() != exe.label_digest()

    profile = block_profile_of(copy, store=store)
    assert not profile.from_store
    assert len(profile_runs) == 2
    fn, _, block = label.partition(".")
    assert block + "x" in profile[fn] and block not in profile[fn]


def test_profile_key_carries_the_run_parameters(store, profile_runs):
    exe = fresh_exe()
    block_profile_of(exe, store=store)
    block_profile_of(exe, store=store, max_cycles=10 ** 6)
    block_profile_of(exe, store=store, stack_words=512)
    assert len(profile_runs) == 3
    block_profile_of(exe, store=store, stack_words=512)
    assert len(profile_runs) == 3


@pytest.mark.parametrize("entry", ["{not json", '{"counts": 5}', 42])
def test_undecodable_profile_is_quarantined_and_reprofiled(
    store, profile_runs, entry
):
    exe = fresh_exe()
    key = profile_key(exe)
    store.put(NS_PROFILE, key, entry)
    profile = block_profile_of(exe, store=store)
    assert len(profile_runs) == 1 and not profile.from_store
    assert store.stats.corruptions == 1
    assert len(store.quarantined_entries()) == 1
    # the re-put repaired the entry
    assert BlockProfile.from_json(store.get(NS_PROFILE, key)) == profile


def test_trapping_profile_run_stores_nothing(store):
    exe = compile_program(
        "func main() { var i = 0; while (1) { i = i + 1; } }", O3_SW
    ).executable
    with pytest.raises(MachineTrap, match="cycle budget"):
        simulate(exe, sim_tier="jit3", max_cycles=10_000, store=store)
    assert store.entry_count() == 0


# -- the persisted translation -----------------------------------------------

def warm(store):
    """Translate once into ``store``; returns (exe, profile, program)."""
    exe = fresh_exe()
    profile = block_profile_of(exe, attach=False)
    prog = Jit3Program(exe, profile=profile, store=store)
    return exe, profile, prog


def test_artifact_holds_marshalled_code_not_source(store):
    _, _, prog = warm(store)
    art = store.get(NS_JIT3, prog._store_key)
    assert set(art) == {"code", "exits", "queued", "stats"}
    assert isinstance(art["code"], bytes)
    assert sys.implementation.cache_tag in prog._store_key


def test_translation_is_stored_without_a_second_compile(store, monkeypatch):
    compiles = []
    real = compile

    def counting(*args, **kwargs):
        compiles.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr("builtins.compile", counting)
    warm(store)
    assert len(compiles) == 1


def test_another_interpreter_misses(store, monkeypatch):
    exe, profile, prog = warm(store)
    monkeypatch.setattr(
        sys.implementation, "cache_tag", "other-interpreter-99"
    )
    other = Jit3Program(exe, profile=profile, store=store)
    assert not other.translation_from_store
    assert other._store_key != prog._store_key
    assert other.run() == prog.run()


def test_corrupt_blob_is_quarantined_and_retranslated(store):
    exe, profile, prog = warm(store)
    ref = prog.run()
    path = store._path(NS_JIT3, prog._store_key)
    blob = bytearray(Path(path).read_bytes())
    blob[-1] ^= 0xFF
    Path(path).write_bytes(bytes(blob))

    again = Jit3Program(exe, profile=profile, store=store)
    assert not again.translation_from_store
    assert len(store.quarantined_entries()) == 1
    assert again.run() == ref
    assert again.run().jit3["traces"] == ref.jit3["traces"]
    # the re-put repaired the address
    assert Jit3Program(exe, profile=profile, store=store) \
        .translation_from_store


def test_code_that_does_not_unmarshal_is_quarantined(store):
    exe, profile, prog = warm(store)
    ref = prog.run()
    art = store.get(NS_JIT3, prog._store_key)
    art["code"] = b"\x00 not marshal data"
    store.put(NS_JIT3, prog._store_key, art)

    again = Jit3Program(exe, profile=profile, store=store)
    assert not again.translation_from_store
    assert store.stats.corruptions == 1
    assert len(store.quarantined_entries()) == 1
    assert again.run() == ref
    repaired = Jit3Program(exe, profile=profile, store=store)
    assert repaired.translation_from_store
    assert repaired.run() == ref


# -- a fresh process over a warm store ---------------------------------------

def test_fresh_process_neither_profiles_nor_compiles(tmp_path):
    names = ["nim", "map", "dhrystone"]
    store = str(tmp_path / "store")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(SRC_ROOT), env.get("PYTHONPATH", "")] if p
    )
    cmd = [
        sys.executable, "-m", "repro.tools.warmstart",
        "--phase", "child-tier3", "--store", store,
        "--configs", TIER3_CONFIG, "--names", *names,
    ]
    reports = []
    for _ in range(2):   # process A warms the store, process B reads it
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout)["tier3"])
    a, b = reports
    assert a["profile_runs"] == len(names)
    assert b["profile_runs"] == 0
    assert b["compile_calls"] == 0
    benches = load_benchmarks()
    for name in names:
        assert b["runs"][name]["from_store"] == [True, True]
        interp = compile_program(
            benches[name].source, PAPER_CONFIGS[TIER3_CONFIG]
        ).run(sim_tier="interp")
        assert b["runs"][name]["stats"] == run_record(interp)
        assert a["runs"][name]["stats"] == run_record(interp)
