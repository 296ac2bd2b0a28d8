"""The priority function of priority-based coloring, extended per-register.

Chow-Hennessy priority of a live range is (savings / area): the loop-
weighted memory operations avoided by keeping the value in a register,
normalised by the range's size.  The paper's Section 2 extension computes
a priority for each (live range, register) pair, because under IPRA the
*cost* of a specific register depends on whether callees clobber it at the
calls the range spans:

    priority(v, r) = (benefit(v) + bonus(v, r) - cost(v, r)) / span(v)

* ``benefit``  -- loads/stores avoided by register residence;
* ``bonus``    -- parameter-passing preference (Section 4): choosing the
  register a value must occupy at a call boundary deletes a move;
* ``cost``     -- save/restore pairs around spanned calls that clobber r,
  plus (when the default convention applies) the one-time entry/exit
  save/restore for the first use of a callee-saved register.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.regalloc.context import AllocEnv
from repro.regalloc.live_ranges import LiveRange
from repro.ir.values import VKind, VReg
from repro.target.registers import NUM_REGISTERS, Register

LOAD_COST = 1
STORE_COST = 1
MOVE_COST = 1
SAVE_RESTORE_COST = LOAD_COST + STORE_COST

_REGISTER_BITS = (1 << NUM_REGISTERS) - 1


@dataclass
class PriorityModel:
    """Pre-computed cost-model inputs for one procedure.

    ``entry_weight`` keeps per-invocation costs (entry/exit saves, entry
    parameter stores, global caching) in the same units as the per-block
    reference weights.  With the static loop-depth weights it is 1; with
    profile feedback it is the measured invocation count.

    The allocator works on per-range vectors: :meth:`clobber_costs` gives
    ``cost(v, r)`` for every register index at once and
    :meth:`bonus_vectors` gives ``bonus(v, r)`` per vreg, so a (v, r)
    priority is plain integer arithmetic.  :meth:`clobber_cost`,
    :meth:`bonus` and :meth:`priority` are single-pair views of the same
    numbers.
    """

    env: AllocEnv
    #: id(call instr) -> clobber mask
    call_clobbers: Dict[int, int] = field(default_factory=dict)
    #: (vreg, register index) -> accumulated move-elimination bonus
    param_bonus: Dict[Tuple[VReg, int], int] = field(default_factory=dict)
    entry_weight: int = 1
    #: the allocatable pool as (register, index, bit) in convention order
    pool: List[Tuple[Register, int, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.pool = [
            (r, r.index, 1 << r.index) for r in self.env.convention.allocatable
        ]

    def benefit(self, lr: LiveRange) -> int:
        """Memory operations avoided if ``lr`` lives in a register."""
        b = LOAD_COST * lr.use_weight + STORE_COST * lr.def_weight
        if lr.vreg.kind is VKind.PARAM:
            # a memory-resident parameter costs one entry store
            b += STORE_COST * self.entry_weight
        if lr.vreg.kind is VKind.GLOBAL:
            # a register-resident global costs an entry load + exit store
            b -= (LOAD_COST + STORE_COST) * self.entry_weight
        return b

    def clobber_costs(self, lr: LiveRange) -> List[int]:
        """Save/restore cost of the calls ``lr`` spans, per register index.

        The spanned calls' weights are summed per distinct clobber mask (a
        procedure has few), then each sum is spread over its mask's bits.
        """
        by_mask: Dict[int, int] = {}
        clobbers = self.call_clobbers
        for rc in lr.calls:
            mask = clobbers[id(rc.instr)]
            by_mask[mask] = by_mask.get(mask, 0) + rc.weight
        costs = [0] * NUM_REGISTERS
        for mask, weight in by_mask.items():
            cost = SAVE_RESTORE_COST * weight
            mask &= _REGISTER_BITS
            while mask:
                low = mask & -mask
                costs[low.bit_length() - 1] += cost
                mask ^= low
        return costs

    def clobber_cost(self, lr: LiveRange, reg: Register) -> int:
        """Save/restore pairs needed around calls the range spans."""
        return self.clobber_costs(lr)[reg.index]

    def bonus_vectors(self) -> Dict[VReg, Dict[int, int]]:
        """``param_bonus`` regrouped per vreg: register index -> bonus."""
        out: Dict[VReg, Dict[int, int]] = {}
        for (v, index), b in self.param_bonus.items():
            out.setdefault(v, {})[index] = b
        return out

    def bonus(self, lr: LiveRange, reg: Register) -> int:
        return self.param_bonus.get((lr.vreg, reg.index), 0)

    def priority(self, lr: LiveRange, reg: Register, first_use_cost: int) -> float:
        """The (v, r) priority; ``first_use_cost`` is the dynamic entry/exit
        save cost (non-zero only for the first use of a callee-saved
        register when the default convention applies)."""
        net = (
            self.benefit(lr)
            + self.bonus(lr, reg)
            - self.clobber_cost(lr, reg)
            - first_use_cost
        )
        return net / lr.span

    def order_key(
        self,
        lr: LiveRange,
        costs: Optional[List[int]] = None,
        bonus: Optional[Dict[int, int]] = None,
    ) -> float:
        """Register-independent ordering key: the optimistic priority,
        assuming the cheapest register (no entry cost).  ``costs`` and
        ``bonus`` are the range's vectors when the caller already has them.
        """
        if costs is None:
            costs = self.clobber_costs(lr)
        if bonus is None:
            bonus = self.bonus_vectors().get(lr.vreg, {})
        best_cost = min([costs[i] for _, i, _ in self.pool], default=0)
        best_bonus = max([bonus.get(i, 0) for _, i, _ in self.pool], default=0)
        return (self.benefit(lr) + best_bonus - best_cost) / lr.span
