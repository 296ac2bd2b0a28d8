"""Property tests for the bitmask-native register file."""

from hypothesis import given, strategies as st

from repro.target.registers import (
    ALL_REGISTERS,
    ALLOCATABLE,
    ALLOCATABLE_MASK,
    CALLEE_SAVED,
    CALLEE_SAVED_MASK,
    CALLER_SAVED,
    CALLER_SAVED_MASK,
    Convention,
    NUM_REGISTERS,
    reg,
    registers_in_mask,
    validate_convention,
)

masks = st.integers(min_value=0, max_value=(1 << NUM_REGISTERS) - 1)
register_subsets = st.sets(st.sampled_from(ALL_REGISTERS))


@given(masks)
def test_registers_in_mask_round_trips(mask):
    regs = registers_in_mask(mask)
    rebuilt = 0
    for r in regs:
        rebuilt |= r.mask
    assert rebuilt == mask
    # ascending index order, no duplicates
    indices = [r.index for r in regs]
    assert indices == sorted(set(indices))


@given(register_subsets)
def test_mask_construction_round_trips(regs):
    mask = 0
    for r in regs:
        mask |= r.mask
    assert set(registers_in_mask(mask)) == set(regs)


@given(masks, masks)
def test_registers_in_mask_respects_union_and_intersection(a, b):
    assert set(registers_in_mask(a | b)) == set(
        registers_in_mask(a)
    ) | set(registers_in_mask(b))
    assert set(registers_in_mask(a & b)) == set(
        registers_in_mask(a)
    ) & set(registers_in_mask(b))


def test_caller_callee_partition_full_file():
    # caller-saved and callee-saved partition the allocatable file
    assert CALLER_SAVED_MASK & CALLEE_SAVED_MASK == 0
    assert CALLER_SAVED_MASK | CALLEE_SAVED_MASK == ALLOCATABLE_MASK
    assert len(CALLER_SAVED) + len(CALLEE_SAVED) == len(ALLOCATABLE)


@given(st.integers(min_value=1, max_value=len(CALLER_SAVED)))
def test_caller_only_pool_is_caller_saved(n):
    c = validate_convention(Convention(allocatable=CALLER_SAVED[:n]))
    assert len(c.allocatable) == n
    assert all(r.caller_saved for r in c.allocatable)
    assert c.mask & CALLEE_SAVED_MASK == 0


@given(st.integers(min_value=1, max_value=len(CALLEE_SAVED)))
def test_callee_only_pool_is_callee_saved(n):
    c = validate_convention(Convention(allocatable=CALLEE_SAVED[:n]))
    assert len(c.allocatable) == n
    assert all(r.callee_saved for r in c.allocatable)
    assert c.mask & CALLER_SAVED_MASK == 0


def test_reg_lookup_round_trips():
    for r in ALL_REGISTERS:
        assert reg(r.name) is r
        assert r.mask == 1 << r.index
