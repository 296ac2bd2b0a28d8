"""Linking.

Two layers, mirroring the paper's compilation setting (Section 7):

* **IR linking** -- the MIPS compiler system links Ucode from separate
  program units *before* optimisation, so the inter-procedural allocator
  sees the whole program.  :func:`link_ir_modules` merges IR modules and
  resolves ``extern`` declarations.
* **Executable linking** -- machine-code functions (possibly from modules
  compiled separately) are laid out, data addresses assigned, and every
  symbolic reference patched.  Address 0 is reserved as a null guard.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend.errors import LinkError
from repro.ir.function import IRModule
from repro.target.isa import AsmFunction, Instr, Opcode


@dataclass
class Executable:
    """A fully linked, runnable program image."""

    instrs: List[Instr] = field(default_factory=list)
    entry_pc: int = 0
    func_entries: Dict[str, int] = field(default_factory=dict)
    #: pc -> function name for the function starting there
    func_at_pc: Dict[int, str] = field(default_factory=dict)
    data_layout: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    data_init: Dict[int, int] = field(default_factory=dict)
    data_size: int = 1  # address 0 reserved
    #: function name -> register mask the function must preserve
    preserved_masks: Dict[str, int] = field(default_factory=dict)
    #: every code label -> pc ("fn" entries and "fn.block" block starts);
    #: used by the block-profile collector
    labels: Dict[str, int] = field(default_factory=dict)

    def label_of_pc(self, pc: int) -> Optional[str]:
        return self.func_at_pc.get(pc)

    def fingerprint(self) -> str:
        """Stable content digest of the linked image (instructions,
        entry, data image, preservation contracts) -- the executable
        half of a tier-3 translation store key.  Cached: the image is
        immutable once linked."""
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            parts = [repr(i) for i in self.instrs]
            parts.append(f"entry={self.entry_pc}")
            parts.append(f"data_size={self.data_size}")
            parts.append(repr(sorted(self.data_init.items())))
            parts.append(repr(sorted(self.preserved_masks.items())))
            cached = hashlib.sha256(
                "\n".join(parts).encode("utf-8")
            ).hexdigest()
            self._fingerprint = cached  # type: ignore[attr-defined]
        return cached

    def label_digest(self) -> str:
        """Digest of the code's names (``labels`` and ``func_entries``),
        which :meth:`fingerprint` leaves out.  Block profiles are keyed
        by function and block *name*, so every store key derived from a
        profile carries this next to the fingerprint.  Cached like it."""
        cached = getattr(self, "_label_digest", None)
        if cached is None:
            cached = hashlib.sha256(repr((
                sorted(self.labels.items()),
                sorted(self.func_entries.items()),
            )).encode("utf-8")).hexdigest()
            self._label_digest = cached  # type: ignore[attr-defined]
        return cached

    def run(self, **kwargs):
        """Execute the image and return its
        :class:`~repro.sim.stats.RunStats`.

        Accepts everything :func:`repro.sim.simulate` does, notably
        ``sim_tier`` ("auto"/"interp"/"jit"/"jit3") selecting the
        simulator tier.  Import is deferred: the simulator imports
        this module.
        """
        from repro.sim.jit import simulate

        return simulate(self, **kwargs)


def link_ir_modules(modules: Sequence[IRModule], name: str = "program") -> IRModule:
    """Merge IR modules into one program, resolving externs."""
    out = IRModule(name=name)
    for mod in modules:
        for gname, init in mod.globals.items():
            if gname in out.globals or gname in out.arrays:
                raise LinkError(f"duplicate global symbol {gname!r}")
            out.globals[gname] = init
        for aname, size in mod.arrays.items():
            if aname in out.globals or aname in out.arrays:
                raise LinkError(f"duplicate global symbol {aname!r}")
            out.arrays[aname] = size
        for fn in mod.functions.values():
            if fn.name in out.functions:
                raise LinkError(f"duplicate function {fn.name!r}")
            out.functions[fn.name] = fn
        out.address_taken.update(mod.address_taken)
    # resolve externs: every declared extern must be defined somewhere
    for mod in modules:
        for ename, arity in mod.externs.items():
            target = out.functions.get(ename)
            if target is None:
                raise LinkError(f"unresolved extern function {ename!r}")
            if len(target.params) != arity:
                raise LinkError(
                    f"extern {ename!r} declared with arity {arity}, "
                    f"defined with {len(target.params)}"
                )
    return out


@dataclass
class ObjectCode:
    """Machine code for one compiled module (pre-link)."""

    functions: Dict[str, AsmFunction] = field(default_factory=dict)
    globals: Dict[str, int] = field(default_factory=dict)   # name -> init
    arrays: Dict[str, int] = field(default_factory=dict)    # name -> size
    preserved_masks: Dict[str, int] = field(default_factory=dict)


_BRANCH_OPS = (Opcode.B, Opcode.BEQZ, Opcode.BNEZ, Opcode.JAL)


def link_executable(
    objects: Sequence[ObjectCode], entry: str = "main"
) -> Executable:
    """Link object code into an executable image."""
    exe = Executable()

    # --- data layout (address 0 is the null guard) ---
    addr = 1
    seen: Dict[str, ObjectCode] = {}
    for obj in objects:
        for sym, init in obj.globals.items():
            if sym in exe.data_layout:
                raise LinkError(f"duplicate data symbol {sym!r}")
            exe.data_layout[sym] = (addr, 1)
            if init:
                exe.data_init[addr] = init
            addr += 1
        for sym, size in obj.arrays.items():
            if sym in exe.data_layout:
                raise LinkError(f"duplicate data symbol {sym!r}")
            exe.data_layout[sym] = (addr, size)
            addr += size
    exe.data_size = addr

    # --- code layout: a start stub, then every function ---
    labels: Dict[str, int] = {}
    code: List[Instr] = []
    # stub: call the entry point, then halt
    code.append(Instr(op=Opcode.JAL, label=entry, comment="start"))
    code.append(Instr(op=Opcode.HALT))

    for obj in objects:
        for fname, fn in obj.functions.items():
            if fname in exe.func_entries:
                raise LinkError(f"duplicate function symbol {fname!r}")
            base = len(code)
            exe.func_entries[fname] = base
            exe.func_at_pc[base] = fname
            for i, ins in enumerate(fn.instrs):
                for lab in fn.labels.get(i, ()):
                    if lab in labels:
                        raise LinkError(f"duplicate label {lab!r}")
                    labels[lab] = base + i
                code.append(
                    Instr(
                        op=ins.op, rd=ins.rd, rs=ins.rs, rt=ins.rt,
                        imm=ins.imm, label=ins.label, kind=ins.kind,
                        comment=ins.comment,
                    )
                )
            for lab in fn.labels.get(len(fn.instrs), ()):
                labels[lab] = base + len(fn.instrs)
        exe.preserved_masks.update(obj.preserved_masks)
    labels.update(exe.func_entries)

    if entry not in exe.func_entries:
        raise LinkError(f"entry point {entry!r} not defined")
    exe.entry_pc = 0
    exe.labels = dict(labels)

    # --- relocation ---
    for pc, ins in enumerate(code):
        if ins.label is None:
            continue
        if ins.op in _BRANCH_OPS:
            target = labels.get(ins.label)
            if target is None:
                raise LinkError(f"unresolved code symbol {ins.label!r}")
            ins.imm = target
        elif ins.op is Opcode.LA:
            if ins.label in exe.func_entries:
                ins.imm = exe.func_entries[ins.label]
            elif ins.label in exe.data_layout:
                ins.imm = exe.data_layout[ins.label][0]
            else:
                raise LinkError(f"unresolved symbol {ins.label!r}")
        elif ins.op in (Opcode.LW, Opcode.SW):
            loc = exe.data_layout.get(ins.label)
            if loc is None:
                raise LinkError(f"unresolved data symbol {ins.label!r}")
            ins.imm = (ins.imm or 0) + loc[0]
        else:
            raise LinkError(
                f"relocation on unexpected opcode {ins.op.value}"
            )

    exe.instrs = code
    return exe
