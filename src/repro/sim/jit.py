"""Tier-2 block-translating simulator -- the reproduction's pixie-JIT.

The tier-1 interpreter in :mod:`repro.sim.simulator` pays a dispatch
tuple-unpack and an if/elif walk for every instruction.  This module
removes that per-instruction cost the way pixie itself did: by
*translating* the program once into native code -- here, Python
functions produced by source synthesis and ``compile()``/``exec()``.

Translation scheme
------------------

* The decoded stream is split at *leaders*: the entry pc, every static
  branch/jump target (the ``imm`` of B/BEQZ/BNEZ/JAL), every function
  entry, and every fall-through successor of a control transfer (JR
  return addresses).
* Each leader becomes one Python function ``_b<pc>(r, m, o, c, y)``
  (registers, memory, output, exit counters, cycles) covering a
  **superblock**: translation continues straight through forward
  unconditional jumps (free at run time), fall-throughs into other
  leaders, and the fall-through arm of conditional branches (the taken
  arm becomes an early-``return`` "if" body), up to an instruction cap,
  a call/return, HALT, or any backward transfer.  The pc therefore
  increases strictly along a superblock, so a superblock is a loop-free
  forward region; loops re-enter their header block once per iteration.
* Straight-line register ops are inlined with no dispatch: register
  reads/writes are cached in Python locals for the whole superblock and
  written back only at exits, reads of $zero fold to the literal ``0``,
  and writes to $zero are discarded (their trapping operand evaluation
  is kept).
* Per-instruction counters disappear.  Every superblock *exit* gets an
  id and a record of the instructions on the unique entry-to-exit path,
  so instructions, calls, branches and loads/stores by
  :class:`~repro.target.isa.MemKind` are constants per exit: each
  execution bumps one counter (``c[exit] += 1``) and the totals are
  reconstructed after HALT.  Cycles are threaded through as a running
  local (``y``) because the budget check needs them.
* The cycle-budget check is hoisted to exit granularity: once at every
  superblock exit, plus a guard before any instruction that can itself
  trap (using the path-constant cycle prefix, so a budget overrun
  preempts exactly the traps it used to preempt).  Checking at *every*
  exit is a superset of the interpreter's backward-branch/call/return
  checks, and the extra checks are unobservable: once over budget, the
  interpreter's next check raises the identical trap before any other
  trap can differ (trapping instructions are pre-guarded), and state is
  discarded on a trap anyway.  The one place the interpreter can trap
  *differently* while over budget -- running off the end of the code --
  is replicated exactly: exits to an invalid pc raise ``pc outside
  code`` with a preceding budget check only where the interpreter had
  one (backward branches, calls).  HALT keeps the interpreter's quirk
  of never checking its own latency.
* Exits return the *successor's block function* directly
  (``return _b42, y``); the driver loop is just
  ``while fn is not None: fn, y = fn(r, m, o, c, y)``.  Dynamic targets
  (JR/JALR) go through a pc -> function table, translating unseen pcs
  on demand, so even a sabotaged executable that jumps mid-block still
  runs (or traps) exactly like the interpreter.

Translations are cached on the executable next to ``_decoded``, keyed
by tier plus everything baked into the generated source as literals
(``stack_words`` and ``max_cycles`` give the memory bound and budget;
the tier-3 key adds its options and profile digest), so tier-2 and
tier-3 translations of one executable never collide.

Tier-3: profile-guided trace translation
----------------------------------------

:class:`Jit3Program` (tier ``"jit3"``; tier ``"auto"`` escalates to it
when a :class:`~repro.pipeline.profile.BlockProfile` is attached to the
executable) extends the superblock scheme with three trace
optimisations, all driven by interpreter profile data:

* **Summary-driven call inlining** -- a JAL to a hot, small callee
  continues translating *into* the callee instead of exiting, with the
  return address tracked as a translation-time constant.  The paper's
  register-usage summaries (via ``Executable.preserved_masks``) give
  the cheap feasibility check: the callee subtree's destroyable
  register set, unioned with the registers the trace already caches in
  Python locals, must fit the trace-register cap -- Chow's "one word of
  storage" reused as the inliner's gate.  A JR whose target is the
  tracked constant return pc links straight back to the caller with
  zero emitted code; an unproven JR emits a return-pc guard whose miss
  arm is a full dynamic exit, so inlining is sound for *any* callee
  behaviour (the summary is profitability, not correctness).  Indirect
  calls (JALR) always bail out to a dynamic exit.
* **Trace linking of loops** -- every tier-3 block body is emitted
  inside ``while True:`` with all accessed registers hoisted into
  Python locals once, up front; a backward edge targeting the block's
  own start becomes bump-counter / budget-check / ``continue``, so loop
  iterations never leave the translated function (no write-back,
  re-dispatch and reload per iteration).  Every exit writes back the
  block's full written set, which keeps the per-exit path-constant
  statistics exact in the presence of re-entry.
* **Constant-argument specialization** -- when the profile proves an
  argument register held one constant at every observed call of a hot
  function, the function-entry block is translated under that
  assumption behind a cheap entry guard; the guard's miss arm
  dispatches to an unspecialized twin translation.  Inside the
  specialized body (and inside inlined callees fed constant arguments)
  constant registers fold into literals and conditional branches on
  them fold away.

Budget-identity note: linked transfers (inlined JAL, linked JR, loop
back-edge before the taken check) may skip interpreter budget-check
points, which is unobservable for the same reason the tier-2 hoisting
is -- every counted exit budget-checks, every trapping instruction is
pre-guarded with its path-constant cycle prefix, and loop back-edges
keep a per-iteration check.  Decisions and bailout counts surface in
``RunStats.jit3``; any tier-3 translation failure falls back to tier-2
and ultimately the interpreter (the resilience ladder).

Both halves of tier 3's cold start persist in the artifact store, so a
fresh process over a warm store neither profiles nor calls
``compile()``:

* the self-profile (``sim_tier="jit3"`` with no profile attached) is a
  :class:`~repro.pipeline.profile.BlockProfile` stored under
  ``NS_PROFILE``, keyed by executable fingerprint, label digest and the
  profiling run's ``stack_words``/``max_cycles``;
* the whole-program translation is stored under ``NS_JIT3`` as
  ``marshal.dumps`` of the code object ``compile()`` already produced,
  plus the exit-path constants, keyed by executable fingerprint, label digest,
  profile digest, sim parameters, options and
  ``sys.implementation.cache_tag`` (another interpreter simply misses).
  Restoring is ``marshal.loads`` then ``exec``; an entry that does not
  restore is quarantined and retranslated.

``RunStats.jit3`` records whether the profile and the translation were
served from the store.

The interpreter remains the retained reference oracle: contract checking
and ``block_counts`` profiling are interpreter features, and
:func:`simulate` routes runs that need them (tier ``auto``) back to it.
Identity between the tiers -- bit-identical :class:`RunStats` including
trap behaviour -- is enforced by the differential tests in
``tests/sim/`` and by ``benchmarks/bench_speed.py``.
"""

from __future__ import annotations

import marshal
import sys
from dataclasses import dataclass
from types import CodeType
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import faults
from repro.ir.arith import MachineTrap, sdiv, srem
from repro.pipeline.linker import Executable
from repro.sim.simulator import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_STACK_WORDS,
    DUMP_INDEX,
    decoded_stream,
    run_program,
    _ADD, _SUB, _MUL, _DIV, _REM, _AND, _OR, _XOR, _SLL, _SRL, _SRA,
    _SLT, _SLE, _SEQ, _SNE, _ADDI, _LI, _LA, _MOVE, _NEG, _NOT, _LW,
    _SW, _B, _BEQZ, _BNEZ, _JAL, _JALR, _JR, _PRINT, _HALT,
    _KINDS, _LAT,
)
from repro.sim.stats import RunStats
from repro.store.store import NS_JIT3
from repro.target.isa import srl
from repro.target.registers import (
    ALLOCATABLE_MASK,
    NUM_REGISTERS,
    PARAM_REGS,
    RA,
    SP,
)

__all__ = [
    "JitProgram",
    "Jit3Options",
    "Jit3Program",
    "run_jit",
    "run_jit3",
    "simulate",
    "SIM_TIERS",
]

#: binary ALU ops with a plain infix translation
_INFIX = {
    _ADD: "+", _SUB: "-", _MUL: "*", _AND: "&", _OR: "|", _XOR: "^",
}

#: comparison ops translated to conditional expressions
_COMPARE = {_SLT: "<", _SLE: "<=", _SEQ: "==", _SNE: "!="}

#: superblock growth cap, in translated instructions.  Big enough that a
#: typical loop body or call-to-call region is one superblock, small
#: enough to bound tail duplication from inlining across leaders.
INLINE_CAP = 96


class _ExitPath:
    """Stat constants for one superblock exit: the dynamic counts of the
    unique entry-to-exit path, multiplied by the exit counter after a
    run."""

    __slots__ = ("ninstr", "cycles", "calls", "branches", "loads", "stores")

    def __init__(self, ninstr, cycles, calls, branches, loads, stores):
        self.ninstr = ninstr
        self.cycles = cycles
        self.calls = calls
        self.branches = branches
        self.loads = loads    # kind number -> count
        self.stores = stores


class JitProgram:
    """A block-translated executable, ready to run.

    One instance is specific to a ``(stack_words, max_cycles)`` pair;
    :func:`run_jit` caches instances on the executable.  Instances are
    reusable across runs but, like the generated functions they hold,
    not thread-safe (use process-level parallelism, as the benchmark
    suite harness does).
    """

    def __init__(
        self,
        exe: Executable,
        stack_words: int = DEFAULT_STACK_WORDS,
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ):
        faults.check(faults.SITE_JIT, getattr(exe, "entry", None))
        self.exe = exe
        self.mem_size = exe.data_size + stack_words
        self.max_cycles = max_cycles
        self.code = decoded_stream(exe)
        self.ncode = len(self.code)
        self.exits: List[_ExitPath] = []
        self.table: Dict[int, Callable] = {}
        self._counts: List[int] = []
        self.ns: Dict[str, object] = {
            "MachineTrap": MachineTrap,
            "sdiv": sdiv,
            "srem": srem,
            "srl": srl,
            "_jump": self._jump,
            "_T": self.table,
        }
        self._leaders = self._find_leaders()
        self._queued: Set[int] = set(self._leaders)
        self._queue: List[int] = sorted(self._leaders)
        self._drain_queue()

    # -- translation --------------------------------------------------------

    def _find_leaders(self) -> Set[int]:
        leaders = {self.exe.entry_pc}
        leaders.update(self.exe.func_entries.values())
        transfers = (_B, _BEQZ, _BNEZ, _JAL, _JALR, _JR, _HALT)
        for pc, ins in enumerate(self.code):
            op = ins[0]
            if op in (_B, _BEQZ, _BNEZ, _JAL) and 0 <= ins[4] < self.ncode:
                leaders.add(ins[4])
            if op in transfers and pc + 1 < self.ncode:
                leaders.add(pc + 1)
        return {pc for pc in leaders if 0 <= pc < self.ncode}

    def _drain_queue(self) -> Optional[CodeType]:
        """Translate every queued pc (plus any exit target the
        translations reference) and install the result; returns the
        installed code object (``None`` if nothing was queued)."""
        sources = []
        while self._queue:
            sources.append(self._translate_superblock(self._queue.pop()))
        if not sources:
            return None
        code = compile(
            "\n".join(sources), f"<jit:{id(self.exe):#x}>", "exec"
        )
        self._install(code)
        return code

    def _enqueue(self, pc: int) -> None:
        if pc not in self._queued:
            self._queued.add(pc)
            self._queue.append(pc)

    def _translate_superblock(self, start: int) -> str:
        """Synthesise the source of the superblock rooted at ``start``,
        registering an :class:`_ExitPath` per exit; returns the ``def``
        source text."""
        code = self.code
        ncode = self.ncode
        max_cycles = self.max_cycles
        lines = [f"def _b{start}(r, m, o, c, y):"]
        known: Set[int] = set()    # registers cached in a local
        written: List[int] = []    # registers needing write-back, in order
        # running path stats from the superblock entry
        ninstr = 0
        prefix = 0                 # cycles accrued so far on the path
        calls = 0
        branches = 0
        loads: Dict[int, int] = {}
        stores: Dict[int, int] = {}

        def read(i: int) -> str:
            if i == 0:
                return "0"  # $zero: nothing ever writes it (see DUMP_INDEX)
            if i not in known:
                lines.append(f"    r{i} = r[{i}]")
                known.add(i)
            return f"r{i}"

        def write(i: int) -> Optional[str]:
            if i == 0 or i == DUMP_INDEX:
                return None
            if i not in known:
                known.add(i)
            if i not in written:
                written.append(i)
            return f"r{i}"

        def budget_guard() -> None:
            # before a trapping instruction: the interpreter's budget trap
            # at any *earlier* instruction must still preempt this one
            if prefix > 0:
                lines.append(
                    f"    if y + {prefix} > {max_cycles}:"
                    f" raise MachineTrap('cycle budget exceeded')"
                )

        def emit_exit(
            ind: str, ret: str,
            budget: bool = True, halting: bool = False, bump: bool = True,
        ) -> None:
            """Write-backs, cycle accrual, budget check, exit counter and
            the transfer itself, at indentation ``ind``."""
            for i in written:
                lines.append(f"{ind}r[{i}] = r{i}")
            lines.append(f"{ind}y += {prefix}")
            if budget:
                lhs = "y - 1" if halting else "y"  # HALT's cost: unchecked
                lines.append(
                    f"{ind}if {lhs} > {max_cycles}:"
                    f" raise MachineTrap('cycle budget exceeded')"
                )
            if bump:
                eid = len(self.exits)
                self.exits.append(_ExitPath(
                    ninstr, prefix, calls, branches,
                    dict(loads), dict(stores),
                ))
                if len(self._counts) < len(self.exits):
                    self._counts.append(0)
                lines.append(f"{ind}c[{eid}] += 1")
            lines.append(f"{ind}{ret}")

        def exit_to(ind: str, target: int, checked: bool = True) -> None:
            """Exit transferring to static pc ``target``.  ``checked``
            says whether the interpreter ran a budget check on this
            transfer (backward branch / call); it decides whether an
            *invalid* target budget-checks before trapping, matching the
            interpreter's check-then-fetch order."""
            if 0 <= target < ncode:
                self._enqueue(target)
                emit_exit(ind, f"return _b{target}, y")
            else:
                emit_exit(
                    ind,
                    f"raise MachineTrap('pc {target} outside code')",
                    budget=checked, bump=False,
                )

        def addr_expr(base: int, imm: int) -> None:
            off = f" + {imm}" if imm > 0 else (f" - {-imm}" if imm < 0 else "")
            lines.append(f"    a = {read(base)}{off}")

        pc = start
        while True:
            op, rd, rs, rt, imm, kind = code[pc]
            ninstr += 1
            lat = _LAT[op]

            if op == _LW:
                budget_guard()
                addr_expr(rs, imm)
                lines.append(
                    f"    if a < 1 or a >= {self.mem_size}:"
                    f" raise MachineTrap('bad load address %d at pc={pc}' % a)"
                )
                w = write(rd)
                if w is not None:
                    lines.append(f"    {w} = m[a]")
                loads[kind] = loads.get(kind, 0) + 1
            elif op == _SW:
                budget_guard()
                addr_expr(rt, imm)
                lines.append(
                    f"    if a < 1 or a >= {self.mem_size}:"
                    f" raise MachineTrap('bad store address %d at pc={pc}' % a)"
                )
                lines.append(f"    m[a] = {read(rs)}")
                stores[kind] = stores.get(kind, 0) + 1
            elif op in _INFIX:
                a, b = read(rs), read(rt)
                w = write(rd)
                if w is not None:
                    lines.append(f"    {w} = {a} {_INFIX[op]} {b}")
            elif op == _ADDI:
                a = read(rs)
                w = write(rd)
                if w is not None:
                    rhs = a if imm == 0 else (
                        f"{a} + {imm}" if imm > 0 else f"{a} - {-imm}"
                    )
                    lines.append(f"    {w} = {rhs}")
            elif op == _LI or op == _LA:
                w = write(rd)
                if w is not None:
                    lines.append(f"    {w} = {imm}")
            elif op == _MOVE:
                a = read(rs)
                w = write(rd)
                if w is not None and w != a:
                    lines.append(f"    {w} = {a}")
            elif op in _COMPARE:
                a, b = read(rs), read(rt)
                w = write(rd)
                if w is not None:
                    lines.append(
                        f"    {w} = 1 if {a} {_COMPARE[op]} {b} else 0"
                    )
            elif op == _DIV or op == _REM:
                budget_guard()
                fname = "sdiv" if op == _DIV else "srem"
                a, b = read(rs), read(rt)
                w = write(rd)
                call = f"{fname}({a}, {b})"
                lines.append(
                    f"    {w} = {call}" if w is not None else f"    {call}"
                )
            elif op == _SLL or op == _SRL or op == _SRA:
                budget_guard()
                s = read(rt)
                lines.append(
                    f"    if {s} < 0 or {s} > 63:"
                    f" raise MachineTrap('shift amount %d out of range' % {s})"
                )
                a = read(rs)
                w = write(rd)
                if w is not None:
                    if op == _SLL:
                        lines.append(f"    {w} = {a} << {s}")
                    elif op == _SRA:
                        lines.append(f"    {w} = {a} >> {s}")
                    else:
                        lines.append(f"    {w} = srl({a}, {s})")
            elif op == _NEG:
                a = read(rs)
                w = write(rd)
                if w is not None:
                    lines.append(f"    {w} = -{a}" if a != "0"
                                 else f"    {w} = 0")
            elif op == _NOT:
                a = read(rs)
                w = write(rd)
                if w is not None:
                    lines.append(f"    {w} = 1 if {a} == 0 else 0")
            elif op == _PRINT:
                lines.append(f"    o.append({read(rs)})")
            elif op == _BEQZ or op == _BNEZ:
                branches += 1
                prefix += lat
                cond = read(rs)
                test = "==" if op == _BEQZ else "!="
                lines.append(f"    if {cond} {test} 0:")
                exit_to("        ", imm, checked=imm <= pc)
                # the taken arm returned; fall through inline (below)
                pc += 1
                if pc < ncode and ninstr < INLINE_CAP:
                    continue
                exit_to("    ", pc, checked=False)
                break
            elif op == _B:
                prefix += lat
                if pc < imm < ncode and ninstr < INLINE_CAP:
                    # a forward jump inlines for free; backward jumps
                    # exit so every loop iteration meets a budget check,
                    # like the interpreter's backward-branch check
                    pc = imm
                    continue
                exit_to("    ", imm, checked=imm <= pc)
                break
            elif op == _JAL:
                calls += 1
                prefix += lat
                w = write(RA.index)
                lines.append(f"    {w} = {pc + 1}")
                exit_to("    ", imm, checked=True)
                break
            elif op == _JALR:
                calls += 1
                prefix += lat
                lines.append(f"    t = {read(rs)}")
                w = write(RA.index)
                lines.append(f"    {w} = {pc + 1}")
                emit_exit("    ", "return _T.get(t) or _jump(t), y")
                break
            elif op == _JR:
                prefix += lat
                lines.append(f"    t = {read(rs)}")
                emit_exit("    ", "return _T.get(t) or _jump(t), y")
                break
            elif op == _HALT:
                prefix += lat
                emit_exit("    ", "return None, y", halting=True)
                break
            else:  # pragma: no cover - exhaustive over the opcode set
                raise MachineTrap(f"unknown opcode number {op}")

            # straight-line instruction: accrue and move on
            prefix += lat
            pc += 1
            if pc >= ncode or ninstr >= INLINE_CAP:
                exit_to("    ", pc, checked=False)
                break

        return "\n".join(lines) + "\n"

    def _install(self, code: CodeType) -> None:
        exec(code, self.ns)
        for name, value in list(self.ns.items()):
            if name.startswith("_b") and name[2:].isdigit():
                self.table[int(name[2:])] = value

    def _jump(self, pc: int) -> Callable:
        """Resolve a dynamic jump target, translating on demand."""
        fn = self.table.get(pc)
        if fn is None:
            if pc < 0 or pc >= self.ncode:
                raise MachineTrap(f"pc {pc} outside code")
            # a JR/JALR into an untranslated pc (possible only with a
            # hand-built or corrupted image): translate a superblock
            # starting right there
            self._enqueue(pc)
            self._drain_queue()
            fn = self.table[pc]
        return fn

    # -- execution ----------------------------------------------------------

    def run(self) -> RunStats:
        exe = self.exe
        mem: List[int] = [0] * self.mem_size
        for a, v in exe.data_init.items():
            mem[a] = v
        regs: List[int] = [0] * NUM_REGISTERS
        regs[SP.index] = self.mem_size
        out: List[int] = []
        # _counts is extended by on-demand translation mid-run, which is
        # why it lives on self (runs are not concurrent; see class doc)
        counts = self._counts = [0] * len(self.exits)
        cycles = 0

        fn = self._jump(exe.entry_pc)
        while fn is not None:
            fn, cycles = fn(regs, mem, out, counts, cycles)

        stats = RunStats()
        stats.cycles = cycles
        stats.output = out
        nkinds = len(_KINDS)
        load_counts = [0] * nkinds
        store_counts = [0] * nkinds
        exits = self.exits
        for eid, n in enumerate(counts):
            if not n:
                continue
            path = exits[eid]
            stats.instructions += n * path.ninstr
            stats.calls += n * path.calls
            stats.branches += n * path.branches
            for kind, cnt in path.loads.items():
                load_counts[kind] += n * cnt
            for kind, cnt in path.stores.items():
                store_counts[kind] += n * cnt
        for i, k in enumerate(_KINDS):
            if load_counts[i]:
                stats.loads[k] = load_counts[i]
            if store_counts[i]:
                stats.stores[k] = store_counts[i]
        return stats


# ---------------------------------------------------------------------------
# Tier 3: profile-guided trace translation
# ---------------------------------------------------------------------------

#: argument-register indices, in parameter order (specialization slots)
_PARAM_IDX: Tuple[int, ...] = tuple(r.index for r in PARAM_REGS)

#: constant folders for trap-free ALU ops (DIV/REM/shifts can trap and
#: are never folded; their guards must execute)
_FOLD = {
    _ADD: lambda a, b: a + b,
    _SUB: lambda a, b: a - b,
    _MUL: lambda a, b: a * b,
    _AND: lambda a, b: a & b,
    _OR: lambda a, b: a | b,
    _XOR: lambda a, b: a ^ b,
    _SLT: lambda a, b: 1 if a < b else 0,
    _SLE: lambda a, b: 1 if a <= b else 0,
    _SEQ: lambda a, b: 1 if a == b else 0,
    _SNE: lambda a, b: 1 if a != b else 0,
}


@dataclass(frozen=True)
class Jit3Options:
    """Tier-3 translation knobs (all baked into the generated source,
    so they are part of the translation cache key)."""

    inline: bool = True          # inline hot small callees at JAL
    link_loops: bool = True      # back-edges to the block start -> continue
    specialize: bool = True      # entry guards on profiled-constant args
    inline_depth: int = 3        # max simultaneously open inline frames
    inline_size_cap: int = 120   # max callee static length to inline
    trace_cap: int = 512         # max translated instructions per trace
    max_trace_regs: int = 24     # cap on trace locals + callee footprint
    hot_calls: int = 8           # min profiled entry count to inline/spec

    def key(self) -> Tuple:
        return (
            self.inline, self.link_loops, self.specialize,
            self.inline_depth, self.inline_size_cap, self.trace_cap,
            self.max_trace_regs, self.hot_calls,
        )


def _profile_digest(profile) -> str:
    """Stable digest of whatever was passed as a profile (``None``, a
    :class:`~repro.pipeline.profile.BlockProfile`, or a plain dict)."""
    if profile is None:
        return "none"
    digest = getattr(profile, "digest", None)
    if callable(digest):
        return digest()
    import hashlib

    items = sorted(
        (fn, tuple(sorted(blocks.items())))
        for fn, blocks in profile.items()
    )
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


def _hot_by_pc(exe: Executable, profile) -> Dict[int, int]:
    """Block execution counts keyed by pc (via the executable's labels)."""
    hot: Dict[int, int] = {}
    if not profile:
        return hot
    for fn, blocks in profile.items():
        if not isinstance(blocks, dict):
            continue
        for block, count in blocks.items():
            pc = exe.labels.get(f"{fn}.{block}")
            if pc is not None and count:
                hot[pc] = max(hot.get(pc, 0), count)
        entry = exe.func_entries.get(fn)
        if entry is not None:
            count = blocks.get("entry", 0)
            if count:
                hot[entry] = max(hot.get(entry, 0), count)
    return hot


def _arg_consts_by_pc(exe: Executable, profile) -> Dict[int, Tuple]:
    """Observed-constant call arguments keyed by function entry pc."""
    call_args = getattr(profile, "call_args", None)
    if not call_args:
        return {}
    out: Dict[int, Tuple] = {}
    for fn, args in call_args.items():
        entry = exe.func_entries.get(fn)
        if entry is not None:
            out[entry] = tuple(args)
    return out


class Jit3Program(JitProgram):
    """A profile-guided trace-translated executable (tier 3).

    Drives the same driver loop and stat reconstruction as
    :class:`JitProgram`; only the translation differs (see the module
    docstring).  ``jit3_stats`` records the translation decisions and
    is surfaced on :attr:`RunStats.jit3` after every run.
    """

    def __init__(
        self,
        exe: Executable,
        stack_words: int = DEFAULT_STACK_WORDS,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        profile=None,
        opts: Optional[Jit3Options] = None,
        store=None,
    ):
        faults.check(faults.SITE_JIT3, "translate")
        self.opts = opts or Jit3Options()
        self.profile_digest = _profile_digest(profile)
        self._hot = _hot_by_pc(exe, profile)
        self._arg_consts = _arg_consts_by_pc(exe, profile)
        entries = sorted(exe.func_entries.values())
        self._extent = {
            p: (entries[i + 1] if i + 1 < len(entries) else len(exe.instrs))
            - p
            for i, p in enumerate(entries)
        }
        self.jit3_stats: Dict[str, object] = {
            "traces": 0,
            "max_trace_len": 0,
            "inlined_calls": 0,
            "linked_loops": 0,
            "linked_returns": 0,
            "guarded_returns": 0,
            "spec_guards": 0,
            "elided_syncs": 0,
            "bailouts": {},
        }
        #: where this run's inputs came from, for ``RunStats.jit3``
        self.profile_from_store = bool(getattr(profile, "from_store", False))
        self.translation_from_store = False
        self._store = store
        self._artifact_pending = store is not None
        self._store_key = None
        super().__init__(exe, stack_words, max_cycles)

    # -- persistent translation artifacts -----------------------------------

    def _drain_queue(self) -> Optional[CodeType]:
        if not self._artifact_pending:
            return super()._drain_queue()
        # the first drain is the whole-program translation: serve it
        # from the store, or translate it and store what was compiled
        self._artifact_pending = False
        self._store_key = (
            self.exe.fingerprint(),
            self.exe.label_digest(),
            self.profile_digest,
            self.mem_size,
            self.max_cycles,
            self.opts.key(),
            sys.implementation.cache_tag,
        )
        art = self._store.get(NS_JIT3, self._store_key)
        if art is not None:
            if self._restore_artifact(art):
                self._queue.clear()
                self.translation_from_store = True
                return None
            self._store.quarantine(NS_JIT3, self._store_key)
        code = super()._drain_queue()
        self._store.put(NS_JIT3, self._store_key, self._artifact(code))
        return code

    def _artifact(self, code: CodeType) -> Dict:
        stats = dict(self.jit3_stats)
        stats["bailouts"] = dict(self.jit3_stats["bailouts"])
        return {
            "code": marshal.dumps(code),
            "exits": [
                (
                    p.ninstr, p.cycles, p.calls, p.branches,
                    tuple(sorted(p.loads.items())),
                    tuple(sorted(p.stores.items())),
                )
                for p in self.exits
            ],
            "queued": sorted(self._queued),
            "stats": stats,
        }

    def _restore_artifact(self, art) -> bool:
        """Reinstate a stored translation; ``False`` (retranslate) on
        any shape mismatch or code that does not unmarshal -- byte-level
        corruption is already handled by the store's checksums."""
        try:
            code = marshal.loads(art["code"])
            if type(code) is not CodeType:
                return False
            exits = [
                _ExitPath(n, cy, ca, br, dict(ld), dict(st))
                for n, cy, ca, br, ld, st in art["exits"]
            ]
            queued = set(art["queued"])
            stats = dict(art["stats"])
            stats["bailouts"] = dict(stats["bailouts"])
            self._install(code)
        except Exception:
            return False
        self.exits = exits
        self._counts = [0] * len(exits)
        self._queued = queued
        self.jit3_stats = stats
        return True

    # -- translation ---------------------------------------------------------

    def _backedge_targets(self) -> Set[int]:
        """The pcs some backward branch targets -- the only pcs whose
        traces can ever link a loop, hence the only ones worth the
        loop-mode preload/write-back overhead."""
        targets = getattr(self, "_backedge_target_set", None)
        if targets is None:
            targets = {
                ins[4]
                for pc, ins in enumerate(self.code)
                if ins[0] in (_B, _BEQZ, _BNEZ) and 0 <= ins[4] <= pc
            }
            self._backedge_target_set = targets
        return targets

    def _translate_superblock(
        self, start: int, specialized: bool = True,
        fname: Optional[str] = None,
    ) -> str:
        code = self.code
        ncode = self.ncode
        max_cycles = self.max_cycles
        opts = self.opts
        st = self.jit3_stats
        name = fname or f"_b{start}"
        # loop mode -- body inside ``while True:``, all accessed
        # registers preloaded, every exit writes back the full written
        # set -- pays off only where a back-edge can actually link, so
        # it is reserved for blocks some backward branch targets;
        # everything else gets tier-2-style lazy loads and
        # written-so-far write-backs
        loop_mode = opts.link_loops and start in self._backedge_targets()
        if loop_mode:
            IND = "        "
            lines = [
                f"def {name}(r, m, o, c, y):",
                "\x00PRELOAD",
                "\x00SPEC",
                "    while True:",
                f"{IND}\x00ENTRY",
            ]
        else:
            IND = "    "
            lines = [
                f"def {name}(r, m, o, c, y):",
                f"{IND}\x00ENTRY",
                "\x00SPEC",
            ]
        accessed: Set[int] = set()     # registers hoisted into locals
        known: Set[int] = set()
        written: List[int] = []        # full written set, in write order
        consts: Dict[int, int] = {}    # register -> constant at this point
        inline_stack: List[int] = []   # expected return pcs, innermost last
        spec_assumed: Dict[int, int] = {}   # entry-guard register -> value
        spec_lines: List[str] = []
        extra_source = ""
        ninstr = 0
        prefix = 0
        calls = 0
        branches = 0
        loads: Dict[int, int] = {}
        stores: Dict[int, int] = {}

        def bail(reason: str) -> None:
            bailouts = st["bailouts"]
            bailouts[reason] = bailouts.get(reason, 0) + 1

        def const_of(i: int) -> Optional[int]:
            return 0 if i == 0 else consts.get(i)

        def read(i: int) -> str:
            if i == 0:
                return "0"
            v = consts.get(i)
            if v is not None:
                return repr(v)
            if i not in known:
                known.add(i)
                accessed.add(i)
                if not loop_mode:
                    lines.append(f"{IND}r{i} = r[{i}]")
            return f"r{i}"

        def write(i: int, const: Optional[int] = None) -> Optional[str]:
            if i == 0 or i == DUMP_INDEX:
                return None
            known.add(i)
            accessed.add(i)
            if i not in written:
                written.append(i)
            if const is None:
                consts.pop(i, None)
            else:
                # the local assignment is still emitted: loop re-entry
                # and exit write-backs rely on the local being current
                consts[i] = const
            return f"r{i}"

        def budget_guard() -> None:
            # marker, not code: the assembly pass hoists all of a
            # trace's pre-guards into one entry check on the fast
            # variant and materializes them only in its deopt twin
            if prefix > 0:
                lines.append(f"{IND}\x00BG {prefix}")

        def emit_exit(
            ind: str, ret: str,
            budget: bool = True, halting: bool = False, bump: bool = True,
            writeback: bool = True,
        ) -> None:
            if writeback:
                if loop_mode:
                    lines.append(f"{ind}\x00WB")
                else:
                    lines.extend(f"{ind}r[{i}] = r{i}" for i in written)
            lines.append(f"{ind}y += {prefix}")
            if budget:
                lines.append(f"{ind}\x00XB {'y - 1' if halting else 'y'}")
            if bump:
                eid = len(self.exits)
                self.exits.append(_ExitPath(
                    ninstr, prefix, calls, branches,
                    dict(loads), dict(stores),
                ))
                if len(self._counts) < len(self.exits):
                    self._counts.append(0)
                lines.append(f"{ind}c[{eid}] += 1")
            lines.append(f"{ind}{ret}")

        def exit_to(ind: str, target: int, checked: bool = True) -> None:
            if 0 <= target < ncode:
                self._enqueue(target)
                emit_exit(ind, f"return _b{target}, y")
            else:
                emit_exit(
                    ind,
                    f"raise MachineTrap('pc {target} outside code')",
                    budget=checked, bump=False,
                )

        def backedge_linkable() -> bool:
            """A transfer to ``start`` may ``continue`` iff the entry
            assumptions (specialization guards) provably hold here --
            the loop body re-runs without re-checking them."""
            if not loop_mode:
                return False
            return all(
                consts.get(g) == v for g, v in spec_assumed.items()
            )

        def emit_backedge(ind: str) -> None:
            faults.check(faults.SITE_JIT3, "link")
            lines.append(f"{ind}y += {prefix}")
            lines.append(f"{ind}\x00XB y")
            eid = len(self.exits)
            self.exits.append(_ExitPath(
                ninstr, prefix, calls, branches, dict(loads), dict(stores),
            ))
            if len(self._counts) < len(self.exits):
                self._counts.append(0)
            lines.append(f"{ind}c[{eid}] += 1")
            lines.append(f"{ind}continue")
            st["linked_loops"] += 1
            st["elided_syncs"] += len(written)

        def inline_decision(entry: int) -> bool:
            if not opts.inline:
                return False
            callee = self.exe.func_at_pc.get(entry)
            if callee is None:
                return False
            if self._hot.get(entry, 0) < opts.hot_calls:
                bail("cold")
                return False
            if len(inline_stack) >= opts.inline_depth:
                bail("depth")
                return False
            size = self._extent.get(entry, ncode)
            if size > opts.inline_size_cap:
                bail("size")
                return False
            if ninstr + size > opts.trace_cap:
                bail("trace_cap")
                return False
            preserved = self.exe.preserved_masks.get(callee)
            destroy = ALLOCATABLE_MASK if preserved is None \
                else ALLOCATABLE_MASK & ~preserved
            mask = destroy
            for i in accessed:
                mask |= 1 << i
            if bin(mask).count("1") > opts.max_trace_regs:
                bail("footprint")
                return False
            faults.check(faults.SITE_JIT3, "inline")
            return True

        def addr_expr(base: int, imm: int) -> None:
            off = f" + {imm}" if imm > 0 else (f" - {-imm}" if imm < 0 else "")
            lines.append(f"{IND}a = {read(base)}{off}")

        # -- specialization: entry guards on profiled-constant arguments --
        if (
            specialized and opts.specialize
            and start in self.exe.func_at_pc
            and self._hot.get(start, 0) >= opts.hot_calls
        ):
            observed = self._arg_consts.get(start) or ()
            guards = [
                (_PARAM_IDX[k], v)
                for k, v in enumerate(observed[:len(_PARAM_IDX)])
                if v is not None
            ]
            if guards:
                fallback = f"_f{start}"
                extra_source = self._translate_superblock(
                    start, specialized=False, fname=fallback
                )
                for g, v in guards:
                    consts[g] = v
                    spec_assumed[g] = v
                    if loop_mode:
                        # the guard reads the preloaded local
                        accessed.add(g)
                        known.add(g)
                        spec_lines.append(
                            f"    if r{g} != {v}: return {fallback}, y"
                        )
                    else:
                        spec_lines.append(
                            f"    if r[{g}] != {v}: return {fallback}, y"
                        )
                st["spec_guards"] += len(guards)

        pc = start
        while True:
            op, rd, rs, rt, imm, kind = code[pc]
            ninstr += 1
            lat = _LAT[op]

            if op == _LW:
                budget_guard()
                addr_expr(rs, imm)
                lines.append(
                    f"{IND}if a < 1 or a >= {self.mem_size}:"
                    f" raise MachineTrap('bad load address %d at pc={pc}' % a)"
                )
                w = write(rd)
                if w is not None:
                    lines.append(f"{IND}{w} = m[a]")
                loads[kind] = loads.get(kind, 0) + 1
            elif op == _SW:
                budget_guard()
                addr_expr(rt, imm)
                lines.append(
                    f"{IND}if a < 1 or a >= {self.mem_size}:"
                    f" raise MachineTrap('bad store address %d at pc={pc}' % a)"
                )
                lines.append(f"{IND}m[a] = {read(rs)}")
                stores[kind] = stores.get(kind, 0) + 1
            elif op in _INFIX or op in _COMPARE:
                av, bv = const_of(rs), const_of(rt)
                if av is not None and bv is not None:
                    val = _FOLD[op](av, bv)
                    w = write(rd, const=val)
                    if w is not None:
                        lines.append(f"{IND}{w} = {val}")
                else:
                    a, b = read(rs), read(rt)
                    w = write(rd)
                    if w is not None:
                        if op in _INFIX:
                            lines.append(f"{IND}{w} = {a} {_INFIX[op]} {b}")
                        else:
                            lines.append(
                                f"{IND}{w} = 1 if {a} {_COMPARE[op]} {b}"
                                f" else 0"
                            )
            elif op == _ADDI:
                av = const_of(rs)
                a = read(rs)
                if av is not None:
                    val = av + imm
                    w = write(rd, const=val)
                    if w is not None:
                        lines.append(f"{IND}{w} = {val}")
                else:
                    w = write(rd)
                    if w is not None:
                        rhs = a if imm == 0 else (
                            f"{a} + {imm}" if imm > 0 else f"{a} - {-imm}"
                        )
                        lines.append(f"{IND}{w} = {rhs}")
            elif op == _LI or op == _LA:
                w = write(rd, const=imm)
                if w is not None:
                    lines.append(f"{IND}{w} = {imm}")
            elif op == _MOVE:
                av = const_of(rs)
                a = read(rs)
                w = write(rd, const=av)
                if w is not None and w != a:
                    lines.append(f"{IND}{w} = {a}")
            elif op == _DIV or op == _REM:
                budget_guard()
                fn = "sdiv" if op == _DIV else "srem"
                a, b = read(rs), read(rt)
                w = write(rd)
                call = f"{fn}({a}, {b})"
                lines.append(
                    f"{IND}{w} = {call}" if w is not None else f"{IND}{call}"
                )
            elif op == _SLL or op == _SRL or op == _SRA:
                budget_guard()
                s = read(rt)
                lines.append(
                    f"{IND}if {s} < 0 or {s} > 63:"
                    f" raise MachineTrap('shift amount %d out of range'"
                    f" % ({s},))"
                )
                a = read(rs)
                w = write(rd)
                if w is not None:
                    if op == _SLL:
                        lines.append(f"{IND}{w} = {a} << {s}")
                    elif op == _SRA:
                        lines.append(f"{IND}{w} = {a} >> {s}")
                    else:
                        lines.append(f"{IND}{w} = srl({a}, {s})")
            elif op == _NEG:
                av = const_of(rs)
                if av is not None:
                    w = write(rd, const=-av)
                    if w is not None:
                        lines.append(f"{IND}{w} = {-av}")
                else:
                    a = read(rs)
                    w = write(rd)
                    if w is not None:
                        lines.append(f"{IND}{w} = -{a}")
            elif op == _NOT:
                av = const_of(rs)
                if av is not None:
                    val = 1 if av == 0 else 0
                    w = write(rd, const=val)
                    if w is not None:
                        lines.append(f"{IND}{w} = {val}")
                else:
                    a = read(rs)
                    w = write(rd)
                    if w is not None:
                        lines.append(f"{IND}{w} = 1 if {a} == 0 else 0")
            elif op == _PRINT:
                lines.append(f"{IND}o.append({read(rs)})")
            elif op == _BEQZ or op == _BNEZ:
                branches += 1
                prefix += lat
                cv = const_of(rs)
                if cv is not None:
                    taken = (cv == 0) if op == _BEQZ else (cv != 0)
                    if taken:
                        if imm == start and backedge_linkable():
                            emit_backedge(IND)
                            break
                        if pc < imm < ncode and ninstr < opts.trace_cap:
                            pc = imm
                            continue
                        exit_to(IND, imm, checked=imm <= pc)
                        break
                    pc += 1
                    if pc < ncode and ninstr < opts.trace_cap:
                        continue
                    exit_to(IND, pc, checked=False)
                    break
                cond = read(rs)
                backedge_ok = imm == start and backedge_linkable()
                # follow the taken direction only when the profile
                # really favours it: a linkable back-edge, or a forward
                # target carrying the majority of the flow through this
                # trace's head (the fall-through's own count is usually
                # unobservable -- it is rarely a block leader -- so it
                # is estimated as entry minus taken rather than read
                # from the profile, where a missing label would score 0
                # and invert nearly every branch)
                taken_count = self._hot.get(imm, 0)
                if (
                    backedge_ok
                    or (
                        pc < imm < ncode
                        and taken_count * 2 > self._hot.get(start, 1)
                        and taken_count > self._hot.get(pc + 1, 0)
                    )
                ):
                    # the taken direction is the profiled-hot one:
                    # follow it, exiting on the cold fall-through
                    ntest = "!=" if op == _BEQZ else "=="
                    lines.append(f"{IND}if {cond} {ntest} 0:")
                    exit_to(IND + "    ", pc + 1, checked=False)
                    if backedge_ok:
                        emit_backedge(IND)
                        break
                    pc = imm
                    if ninstr < opts.trace_cap:
                        continue
                    exit_to(IND, pc, checked=False)
                    break
                test = "==" if op == _BEQZ else "!="
                lines.append(f"{IND}if {cond} {test} 0:")
                arm = IND + "    "
                if backedge_ok:
                    emit_backedge(arm)
                else:
                    exit_to(arm, imm, checked=imm <= pc)
                pc += 1
                if pc < ncode and ninstr < opts.trace_cap:
                    continue
                exit_to(IND, pc, checked=False)
                break
            elif op == _B:
                prefix += lat
                if imm == start and backedge_linkable():
                    emit_backedge(IND)
                    break
                if pc < imm < ncode and ninstr < opts.trace_cap:
                    pc = imm
                    continue
                exit_to(IND, imm, checked=imm <= pc)
                break
            elif op == _JAL:
                calls += 1
                prefix += lat
                ret_pc = pc + 1
                w = write(RA.index, const=ret_pc)
                lines.append(f"{IND}{w} = {ret_pc}")
                if inline_decision(imm):
                    inline_stack.append(ret_pc)
                    st["inlined_calls"] += 1
                    st["elided_syncs"] += len(written)
                    pc = imm
                    continue
                exit_to(IND, imm, checked=True)
                break
            elif op == _JALR:
                calls += 1
                prefix += lat
                bail("indirect_call")
                lines.append(f"{IND}t = {read(rs)}")
                w = write(RA.index, const=pc + 1)
                lines.append(f"{IND}{w} = {pc + 1}")
                emit_exit(IND, "return _T.get(t) or _jump(t), y")
                break
            elif op == _JR:
                prefix += lat
                if inline_stack:
                    expected = inline_stack[-1]
                    cv = const_of(rs)
                    if cv == expected:
                        inline_stack.pop()
                        st["linked_returns"] += 1
                        st["elided_syncs"] += len(written)
                        pc = expected
                        continue
                    if cv is None:
                        lines.append(f"{IND}t = {read(rs)}")
                        lines.append(f"{IND}if t != {expected}:")
                        emit_exit(
                            IND + "    ",
                            "return _T.get(t) or _jump(t), y",
                        )
                        inline_stack.pop()
                        consts[rs] = expected  # proven by the guard
                        st["guarded_returns"] += 1
                        pc = expected
                        continue
                    # a known return pc that is not this frame's return
                    # (tail-call shape): give up linking this trace
                    bail("return_mismatch")
                lines.append(f"{IND}t = {read(rs)}")
                emit_exit(IND, "return _T.get(t) or _jump(t), y")
                break
            elif op == _HALT:
                prefix += lat
                emit_exit(IND, "return None, y", halting=True)
                break
            else:  # pragma: no cover - exhaustive over the opcode set
                raise MachineTrap(f"unknown opcode number {op}")

            prefix += lat
            pc += 1
            if pc >= ncode or ninstr >= opts.trace_cap:
                exit_to(IND, pc, checked=False)
                break

        st["traces"] += 1
        if ninstr > st["max_trace_len"]:
            st["max_trace_len"] = ninstr

        out: List[str] = []
        for ln in lines:
            if ln == "\x00PRELOAD":
                out.extend(f"    r{i} = r[{i}]" for i in sorted(accessed))
            elif ln == "\x00SPEC":
                out.extend(spec_lines)
            elif ln.endswith("\x00WB"):
                ind = ln[: -len("\x00WB")]
                out.extend(f"{ind}r[{i}] = r{i}" for i in written)
            else:
                out.append(ln)
        # Budget-check hoisting.  Mid-trace budget pre-guards (one per
        # trapping instruction) and the per-exit budget checks can only
        # ever fire when the remaining cycle budget is smaller than the
        # trace's own worst-case accrual.  The fast variant therefore
        # tests that once -- at entry, and at every loop-top in loop
        # mode -- and deopts to a twin that keeps every check;
        # everywhere else they are provably dead (``prefix`` is
        # monotone, so the final total bounds every intermediate
        # ``y + k`` and post-accrual ``y`` test).
        if any("\x00BG " in ln or "\x00XB " in ln for ln in out):
            twin = "_g" + name[1:]
            fast: List[str] = []
            slow: List[str] = []
            for ln in out:
                body = ln.lstrip()
                ind = ln[: len(ln) - len(body)]
                if body.startswith("\x00BG "):
                    slow.append(
                        f"{ind}if y + {body[4:]} > {max_cycles}:"
                        f" raise MachineTrap('cycle budget exceeded')"
                    )
                elif body.startswith("\x00XB "):
                    slow.append(
                        f"{ind}if {body[4:]} > {max_cycles}:"
                        f" raise MachineTrap('cycle budget exceeded')"
                    )
                elif body == "\x00ENTRY":
                    if loop_mode:
                        fast.append(
                            f"{ind}if y + {prefix} > {max_cycles}:"
                        )
                        fast.extend(
                            f"{ind}    r[{i}] = r{i}" for i in written
                        )
                        fast.append(f"{ind}    return {twin}, y")
                    else:
                        fast.append(
                            f"{ind}if y + {prefix} > {max_cycles}:"
                            f" return {twin}, y"
                        )
                elif ln.startswith(f"def {name}("):
                    fast.append(ln)
                    slow.append(f"def {twin}(r, m, o, c, y):")
                else:
                    fast.append(ln)
                    slow.append(ln)
            out = slow + [""] + fast
        else:
            out = [ln for ln in out if ln.lstrip() != "\x00ENTRY"]
        source = "\n".join(out) + "\n"
        if extra_source:
            source = extra_source + source
        return source

    # -- execution -----------------------------------------------------------

    def run(self) -> RunStats:
        stats = super().run()
        info = dict(self.jit3_stats)
        info["bailouts"] = dict(self.jit3_stats["bailouts"])
        info["profile_from_store"] = self.profile_from_store
        info["translation_from_store"] = self.translation_from_store
        stats.jit3 = info
        return stats


def run_jit(
    exe: Executable,
    stack_words: int = DEFAULT_STACK_WORDS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> RunStats:
    """Execute ``exe`` on the block-translating tier.

    The translation is cached on the executable (next to ``_decoded``)
    keyed by ``("jit", stack_words, max_cycles)`` -- the tier tag keeps
    tier-2 and tier-3 translations of one executable from colliding --
    so repeated runs skip straight to execution.
    """
    cache = getattr(exe, "_jit_cache", None)
    if cache is None:
        cache = {}
        exe._jit_cache = cache  # type: ignore[attr-defined]
    key = ("jit", stack_words, max_cycles)
    prog = cache.get(key)
    if prog is None:
        prog = JitProgram(exe, stack_words, max_cycles)
        cache[key] = prog
    return prog.run()


def run_jit3(
    exe: Executable,
    stack_words: int = DEFAULT_STACK_WORDS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    profile=None,
    opts: Optional[Jit3Options] = None,
    store=None,
) -> RunStats:
    """Execute ``exe`` on the tier-3 trace-translating tier.

    ``profile`` is the :class:`~repro.pipeline.profile.BlockProfile`
    driving inlining/linking/specialization decisions (``None`` keeps
    the translator conservative: loop linking only).  ``store`` is an
    optional :class:`~repro.store.ArtifactStore` through which the
    whole-program translation round-trips as marshalled code (see the
    module docstring for its key).  The in-memory translation is cached on
    the executable keyed by tier, sim parameters, options and profile
    digest.
    """
    cache = getattr(exe, "_jit_cache", None)
    if cache is None:
        cache = {}
        exe._jit_cache = cache  # type: ignore[attr-defined]
    opts = opts or Jit3Options()
    key = ("jit3", stack_words, max_cycles, opts.key(),
           _profile_digest(profile))
    prog = cache.get(key)
    if prog is None:
        prog = Jit3Program(
            exe, stack_words, max_cycles,
            profile=profile, opts=opts, store=store,
        )
        cache[key] = prog
    return prog.run()


SIM_TIERS = ("auto", "interp", "jit", "jit3")


def simulate(
    exe: Executable,
    stack_words: int = DEFAULT_STACK_WORDS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    check_contracts: bool = False,
    block_counts: Optional[Dict[int, int]] = None,
    sim_tier: str = "auto",
    profile=None,
    jit3_opts: Optional[Jit3Options] = None,
    store=None,
) -> RunStats:
    """Execute ``exe`` on the selected simulator tier.

    ``sim_tier`` is ``"auto"`` (default), ``"interp"`` (always the
    reference interpreter), ``"jit"`` (the tier-2 block translator) or
    ``"jit3"`` (the profile-guided trace translator).  The translated
    tiers are incompatible with the interpreter-only features
    (``check_contracts``, ``block_counts``).  All tiers produce
    bit-identical :class:`RunStats`.

    ``"auto"`` picks the fastest applicable tier: tier 3 when a profile
    is attached to the executable (see
    :func:`repro.pipeline.profile.attach_profile`) or passed as
    ``profile``, tier 2 otherwise -- and a *translation* failure walks
    down the ladder (jit3 -> jit -> interp) with every failure recorded
    in :attr:`RunStats.sim_fallback`.  :class:`MachineTrap` is program
    semantics (all tiers raise it identically) and always propagates.

    ``sim_tier="jit3"`` with no profile anywhere collects one via a
    single interpreter profiling run first, at this call's
    ``stack_words`` and ``max_cycles`` (so a trap there is the trap tier
    3 would raise), and attaches it.  ``store`` (or
    ``exe._artifact_store``, which the engine attaches to everything it
    compiles) persists that profile and the tier-3 translation across
    processes.
    """
    if sim_tier not in SIM_TIERS:
        raise ValueError(
            f"unknown sim_tier {sim_tier!r}; expected one of {SIM_TIERS}"
        )
    needs_interp = check_contracts or block_counts is not None
    if sim_tier in ("jit", "jit3") and needs_interp:
        raise ValueError(
            f"sim_tier={sim_tier!r} supports neither check_contracts nor "
            "block_counts; use sim_tier='auto' or 'interp'"
        )
    if sim_tier == "interp" or needs_interp:
        return run_program(
            exe,
            stack_words=stack_words,
            max_cycles=max_cycles,
            check_contracts=check_contracts,
            block_counts=block_counts,
        )
    if profile is None:
        profile = getattr(exe, "_block_profile", None)
    if store is None:
        store = getattr(exe, "_artifact_store", None)
    if sim_tier == "jit":
        return run_jit(exe, stack_words=stack_words, max_cycles=max_cycles)
    if sim_tier == "jit3":
        if profile is None:
            # deferred: repro.pipeline.profile imports this module
            from repro.pipeline.profile import block_profile_of

            profile = block_profile_of(
                exe, store=store,
                stack_words=stack_words, max_cycles=max_cycles,
            )
        return run_jit3(
            exe, stack_words=stack_words, max_cycles=max_cycles,
            profile=profile, opts=jit3_opts, store=store,
        )
    # tier "auto": a *translation* failure falls back one tier at a
    # time (jit3 -> jit -> interp), recording each failure on the
    # stats.  MachineTrap is program semantics (all tiers raise it
    # identically) and propagates.
    failures: List[str] = []
    if profile is not None:
        try:
            return run_jit3(
                exe, stack_words=stack_words, max_cycles=max_cycles,
                profile=profile, opts=jit3_opts, store=store,
            )
        except MachineTrap:
            raise
        except Exception as exc:
            failures.append(f"jit3: {exc!r}")
    try:
        stats = run_jit(exe, stack_words=stack_words, max_cycles=max_cycles)
    except MachineTrap:
        raise
    except Exception as exc:
        failures.append(f"jit: {exc!r}")
        stats = run_program(
            exe, stack_words=stack_words, max_cycles=max_cycles
        )
    if failures:
        stats.sim_fallback = "; ".join(failures)
    return stats
