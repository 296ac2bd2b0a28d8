"""Profile-guided register allocation (the paper's stated future work).

The paper closes its Table 1 analysis with: "we lack information on the
execution frequencies at different levels of the call graph.  Knowledge
of such profile data can enable the register allocator to distribute
saves/restores more optimally ...  The feedback of profile data to the
register allocator is a capability that we plan to add in the future."

This module adds it: a profiling run counts basic-block executions (the
simulator increments a counter at every block-start pc), and the counts
replace the static ``10^loop-depth`` weights in the priority function and
in the shrink-wrap APP weighting, via ``CompilerOptions.block_weights``.

The counts are carried in a :class:`BlockProfile` -- a plain-``dict``
subclass (so it drops into ``block_weights`` unchanged) that also
records the constant call arguments the interpreter observed (the tier-3
JIT's specialization data source) and exposes a stable content digest,
which keys tier-3 translation artifacts in the persistent store and lets
tests reference a profile deterministically.  Profiling a program also
*attaches* the profile to its executable, which is what escalates
``sim_tier="auto"`` runs of that executable to the tier-3 JIT.

Usage::

    profile = collect_block_profile(sources, options)
    tuned = options.with_(block_weights=profile)
    prog = compile_program(sources, tuned)
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.pipeline.driver import CompiledProgram, compile_program, Source
from repro.pipeline.linker import Executable
from repro.pipeline.options import CompilerOptions, O2
from repro.sim.simulator import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_STACK_WORDS,
    run_program,
)
from repro.store.store import NS_PROFILE


class BlockProfile(dict):
    """``function -> {block name -> execution count}``, plus observed
    constant call arguments, behind a stable content digest.

    Subclasses ``dict`` so every existing ``block_weights`` consumer
    (options validation, fingerprints, the allocator's priority
    function) takes it unchanged.  ``call_args[fn]`` is a tuple with one
    slot per argument register: the single constant value that register
    held at every observed call of ``fn``, or ``None`` where the values
    varied (or the function was never called).
    """

    def __init__(
        self,
        counts: Union[Dict[str, Dict[str, int]], Sequence] = (),
        call_args: Optional[Dict[str, Tuple[Optional[int], ...]]] = None,
    ):
        super().__init__(counts)
        self.call_args: Dict[str, Tuple[Optional[int], ...]] = {
            fn: tuple(args) for fn, args in (call_args or {}).items()
        }
        #: served from an artifact store rather than profiled in this
        #: process (reported on ``RunStats.jit3``; not part of the digest)
        self.from_store = False

    def digest(self) -> str:
        """SHA-256 over a canonical serialisation -- equal profiles get
        equal digests regardless of insertion order or process."""
        payload = json.dumps(
            {
                "counts": {
                    fn: dict(sorted(blocks.items()))
                    for fn, blocks in sorted(self.items())
                },
                "call_args": {
                    fn: list(args)
                    for fn, args in sorted(self.call_args.items())
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {
                "counts": {fn: blocks for fn, blocks in self.items()},
                "call_args": {
                    fn: list(args) for fn, args in self.call_args.items()
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BlockProfile":
        data = json.loads(text)
        return cls(
            counts=data.get("counts", {}),
            call_args={
                fn: tuple(args)
                for fn, args in data.get("call_args", {}).items()
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockProfile({dict.__repr__(self)}, "
            f"call_args={self.call_args!r})"
        )


def attach_profile(
    target: Union[CompiledProgram, Executable], profile: BlockProfile
) -> None:
    """Attach ``profile`` to an executable: ``sim_tier="auto"`` runs of
    it then escalate to the tier-3 trace JIT (with the tier-2/interp
    fallback ladder underneath)."""
    exe = getattr(target, "executable", target)
    exe._block_profile = profile  # type: ignore[attr-defined]


def block_profile_of(
    target: Union[CompiledProgram, Executable],
    attach: bool = True,
    store=None,
    stack_words: int = DEFAULT_STACK_WORDS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    **run_kwargs,
) -> BlockProfile:
    """Run ``target`` once with block counting and call-argument
    observation; returns the :class:`BlockProfile`, attached to the
    executable (see :func:`attach_profile`) unless ``attach=False``.

    The profile is a pure function of the executable, its names and the
    run's ``stack_words``/``max_cycles``, so with an
    :class:`~repro.store.ArtifactStore` it is looked up under
    ``NS_PROFILE`` first and ``put`` after a miss.  An entry that does
    not decode is quarantined and the program profiled again.  A trap
    in the profiling run propagates (nothing is stored).
    """
    exe = getattr(target, "executable", target)
    key = (exe.fingerprint(), exe.label_digest(), stack_words, max_cycles)
    profile = None
    if store is not None:
        text = store.get(NS_PROFILE, key)
        if text is not None:
            try:
                profile = BlockProfile.from_json(text)
                profile.from_store = True
            except (ValueError, TypeError, AttributeError):
                # not JSON, or JSON of the wrong shape
                store.quarantine(NS_PROFILE, key)
    if profile is None:
        profile = _profile_run(exe, stack_words, max_cycles, run_kwargs)
        if store is not None:
            store.put(NS_PROFILE, key, profile.to_json())
    if attach:
        attach_profile(exe, profile)
    return profile


def _profile_run(
    exe: Executable, stack_words: int, max_cycles: int, run_kwargs
) -> BlockProfile:
    starts: Dict[int, int] = {}
    where: Dict[int, Tuple[str, str]] = {}
    for label, pc in exe.labels.items():
        if "." not in label:
            continue
        fn, _, block = label.partition(".")
        if fn in exe.func_entries:
            starts[pc] = 0
            where[pc] = (fn, block)
    observed: Dict[int, list] = {}
    run_program(
        exe, stack_words=stack_words, max_cycles=max_cycles,
        block_counts=starts, call_args=observed, **run_kwargs,
    )
    counts: Dict[str, Dict[str, int]] = {}
    for pc, count in starts.items():
        fn, block = where[pc]
        counts.setdefault(fn, {})[block] = count
    call_args = {
        exe.func_at_pc[pc]: tuple(args)
        for pc, args in observed.items()
        if pc in exe.func_at_pc
    }
    return BlockProfile(counts, call_args)


def collect_block_profile(
    sources: Union[Source, Sequence[Source]],
    options: CompilerOptions = O2,
    **run_kwargs,
) -> BlockProfile:
    """Compile at ``options`` (the training build) and profile one run."""
    return block_profile_of(compile_program(sources, options), **run_kwargs)


def profile_guided_options(
    options: CompilerOptions,
    profile: Dict[str, Dict[str, int]],
) -> CompilerOptions:
    """Attach a collected profile to compiler options."""
    return options.with_(block_weights=profile)
