"""Cost-model unit tests for the per-register priority function."""

from hypothesis import given, settings, strategies as st

from repro.ir.instructions import Call
from repro.ir.values import Const, VKind, VReg
from repro.regalloc.context import intra_env
from repro.regalloc.live_ranges import LiveRange, RangeCall
from repro.regalloc.priority import (
    LOAD_COST,
    PriorityModel,
    SAVE_RESTORE_COST,
    STORE_COST,
)
from repro.target.registers import ALL_REGISTERS, DEFAULT_CONVENTION, reg


def make_model(**kwargs):
    return PriorityModel(env=intra_env(DEFAULT_CONVENTION), **kwargs)


def make_range(uses=0, defs=0, blocks=(0,), kind=VKind.LOCAL, calls=()):
    lr = LiveRange(vreg=VReg("x", kind))
    lr.use_weight = uses
    lr.def_weight = defs
    lr.blocks = set(blocks)
    lr.calls = list(calls)
    return lr


def test_benefit_counts_loads_and_stores():
    model = make_model()
    lr = make_range(uses=10, defs=4)
    assert model.benefit(lr) == 10 * LOAD_COST + 4 * STORE_COST


def test_param_benefit_includes_entry_store():
    model = make_model()
    lr = make_range(uses=5, kind=VKind.PARAM)
    assert model.benefit(lr) == 5 * LOAD_COST + STORE_COST


def test_global_benefit_subtracts_cache_traffic():
    model = make_model()
    lr = make_range(uses=5, kind=VKind.GLOBAL)
    assert model.benefit(lr) == 5 * LOAD_COST - (LOAD_COST + STORE_COST)


def test_entry_weight_scales_per_invocation_terms():
    model = make_model(entry_weight=100)
    lr = make_range(uses=5, kind=VKind.PARAM)
    assert model.benefit(lr) == 5 * LOAD_COST + 100 * STORE_COST


def test_clobber_cost_per_spanned_call():
    call = Call("g", [Const(1)])
    rc = RangeCall(instr=call, block=1, weight=10)
    model = make_model()
    model.call_clobbers[id(call)] = 1 << reg("t0").index
    lr = make_range(uses=3, calls=[rc])
    assert model.clobber_cost(lr, reg("t0")) == SAVE_RESTORE_COST * 10
    assert model.clobber_cost(lr, reg("s0")) == 0


def test_priority_normalised_by_span():
    model = make_model()
    small = make_range(uses=6, blocks=(0,))
    large = make_range(uses=6, blocks=(0, 1, 2))
    assert model.priority(small, reg("t0"), 0) == 6.0
    assert model.priority(large, reg("t0"), 0) == 2.0


def test_first_use_cost_lowers_priority():
    model = make_model()
    lr = make_range(uses=6, blocks=(0,))
    free = model.priority(lr, reg("s0"), 0)
    charged = model.priority(lr, reg("s0"), SAVE_RESTORE_COST)
    assert charged == free - SAVE_RESTORE_COST


def test_param_bonus_applies_to_specific_register():
    model = make_model()
    lr = make_range(uses=2)
    model.param_bonus[(lr.vreg, reg("a0").index)] = 5
    assert model.bonus(lr, reg("a0")) == 5
    assert model.bonus(lr, reg("a1")) == 0
    assert model.priority(lr, reg("a0"), 0) > model.priority(lr, reg("a1"), 0)


def test_order_key_uses_best_case_register():
    call = Call("g", [])
    rc = RangeCall(instr=call, block=0, weight=1)
    model = make_model()
    # the call clobbers every caller-saved register but no callee-saved
    from repro.target.registers import CALLER_SAVED_MASK

    model.call_clobbers[id(call)] = CALLER_SAVED_MASK
    lr = make_range(uses=4, calls=[rc])
    # best case: a callee-saved register with no clobber cost
    assert model.order_key(lr) == 4.0


# -- the grouped cost vector against the per-call walk -------------------------

def walk_cost(model, lr, r):
    """cost(v, r) as one walk over the spanned calls, per register."""
    return sum(
        SAVE_RESTORE_COST * rc.weight
        for rc in lr.calls
        if model.call_clobbers[id(rc.instr)] & (1 << r.index)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_grouped_cost_vector_matches_per_call_walk(data):
    # a few distinct masks shared by many calls, as in a real procedure;
    # bits past the register file are ignored
    masks = data.draw(
        st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=4)
    )
    calls = data.draw(st.lists(
        st.tuples(st.integers(0, len(masks) - 1), st.integers(0, 10**6)),
        max_size=16,
    ))
    model = make_model(entry_weight=data.draw(st.integers(1, 1000)))
    spanned = []
    for i, (m, weight) in enumerate(calls):
        call = Call(f"f{i}", [])
        model.call_clobbers[id(call)] = masks[m]
        spanned.append(RangeCall(instr=call, block=0, weight=weight))
    kind = data.draw(st.sampled_from(list(VKind)))
    lr = make_range(
        uses=data.draw(st.integers(0, 10**6)),
        defs=data.draw(st.integers(0, 10**6)),
        blocks=range(data.draw(st.integers(1, 40))),
        kind=kind, calls=spanned,
    )
    bonus = data.draw(st.dictionaries(
        st.integers(0, len(ALL_REGISTERS) - 1), st.integers(0, 10**5),
        max_size=6,
    ))
    for index, b in bonus.items():
        model.param_bonus[(lr.vreg, index)] = b

    costs = model.clobber_costs(lr)
    for r in ALL_REGISTERS:
        assert costs[r.index] == walk_cost(model, lr, r)
        assert model.clobber_cost(lr, r) == walk_cost(model, lr, r)
        assert model.priority(lr, r, 0) == (
            model.benefit(lr) + bonus.get(r.index, 0) - walk_cost(model, lr, r)
        ) / lr.span

    # the reference order_key: per-register walks over the pool
    pool = model.env.convention.allocatable
    expected = (
        model.benefit(lr)
        + max((model.bonus(lr, r) for r in pool), default=0)
        - min((walk_cost(model, lr, r) for r in pool), default=0)
    ) / lr.span
    assert model.order_key(lr) == expected
    assert model.order_key(
        lr, costs, model.bonus_vectors().get(lr.vreg, {})
    ) == expected
