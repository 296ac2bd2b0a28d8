"""One-pass IPRA driver tests (Sections 2, 3, 4, 6)."""

from helpers import lower_opt

from repro.interproc import PlanOptions, plan_program
from repro.target.registers import (
    CALLEE_SAVED_MASK,
    DEFAULT_CLOBBER_MASK,
    DEFAULT_CONVENTION,
    registers_in_mask,
    V0,
)


def plan(src, **kwargs):
    opts = PlanOptions(convention=DEFAULT_CONVENTION, ipra=True, **kwargs)
    return plan_program(lower_opt(src), opts)


CHAIN = """
func level0(x) { return x * 2 + 1; }
func level1(x) { var a = x + 3; return level0(a) + a; }
func level2(x) { var a = x - 1; return level1(a) * level1(a + 1) + a; }
func main() { print level2(10); }
"""


def test_closed_procedures_get_summaries():
    p = plan(CHAIN)
    assert p.summaries["level0"].closed
    assert p.summaries["level1"].closed
    assert not p.summaries["main"].closed


def test_summaries_accumulate_up_the_tree():
    p = plan(CHAIN)
    u0 = p.summaries["level0"].used_mask
    u1 = p.summaries["level1"].used_mask
    u2 = p.summaries["level2"].used_mask
    assert u0 & u1 == u0  # level1's summary includes level0's
    assert u1 & u2 == u1


def test_summary_includes_v0():
    p = plan(CHAIN)
    assert p.summaries["level0"].used_mask & (1 << V0.index)


def test_open_procedure_reports_default_summary():
    p = plan(
        """
        func r(n) { if (n > 0) { return r(n - 1); } return 0; }
        func main() { print r(3); }
        """
    )
    assert p.summaries["r"].used_mask == DEFAULT_CLOBBER_MASK


def test_closed_leaf_has_no_saves():
    p = plan(CHAIN)
    leaf = p.plans["level0"]
    assert leaf.mode == "closed"
    assert leaf.entry_exit_saves == []
    assert leaf.wrapped == {}


def test_dfs_order_processes_callees_first():
    p = plan(CHAIN)
    pos = {n: i for i, n in enumerate(p.order)}
    assert pos["level0"] < pos["level1"] < pos["level2"] < pos["main"]


def test_closed_param_travels_in_allocated_register():
    p = plan(CHAIN)
    spec = p.summaries["level1"].params[0]
    assert spec.reg is not None
    alloc = p.plans["level1"].alloc
    x = next(v for v in alloc.fn.param_vregs if v.index == 0)
    assert alloc.assignment[x].index == spec.reg.index


def test_dead_param_marked_dead():
    p = plan(
        """
        func ignore(a, b) { return a; }
        func main() { print ignore(1, 2); }
        """
    )
    specs = p.summaries["ignore"].params
    assert not specs[0].dead
    assert specs[1].dead


def test_calls_to_open_procs_use_default_clobber():
    p = plan(
        """
        func r(n) { if (n > 0) { r(n - 1); } return n; }
        func caller() { return r(5); }
        func main() { print caller(); }
        """
    )
    caller_alloc = p.plans["caller"].alloc
    masks = set(caller_alloc.call_clobbers.values())
    for m in masks:
        assert m & DEFAULT_CLOBBER_MASK == DEFAULT_CLOBBER_MASK & m
        # callee-saved registers are preserved by open callees
        assert not (m & CALLEE_SAVED_MASK)


def test_open_proc_saves_callee_saved_clobbered_by_closed_children():
    # a closed child that burns enough values to need callee-saved regs,
    # called from an open (recursive) parent
    src = """
    func burn(a, b, c) {
        var x = a + b;
        var y = b + c;
        var z = a + c;
        return hot(x) + hot(y) + hot(z) + x + y + z;
    }
    func hot(v) { return v * 2; }
    func parent(n) {
        if (n > 0) { return parent(n - 1) + burn(n, n + 1, n + 2); }
        return 0;
    }
    func main() { print parent(3); }
    """
    p = plan(src)
    burn_used = p.summaries["burn"].used_mask
    if burn_used & CALLEE_SAVED_MASK:
        parent_plan = p.plans["parent"]
        saved = parent_plan.saved_mask
        assert burn_used & CALLEE_SAVED_MASK & saved == \
            burn_used & CALLEE_SAVED_MASK


def test_section6_wrap_excludes_register_from_summary():
    # closed proc using a callee-saved register only on a cold path:
    # with shrink-wrap + combining it saves locally and reports it unused
    src = """
    func work(x) { return x + 1; }
    func cold(n) {
        if (n > 100) {
            var v = n * 3;
            var w = work(v) + work(v + 1) + work(v + 2);
            return v + w;
        }
        return n;
    }
    func main() {
        var t = 0;
        for (var i = 0; i < 5; i = i + 1) { t = t + cold(i); }
        print t;
    }
    """
    p = plan(src, shrink_wrap=True, combine=True)
    cold_plan = p.plans["cold"]
    assert cold_plan.mode == "closed"
    if cold_plan.wrapped:
        for idx in cold_plan.wrapped:
            assert not (p.summaries["cold"].used_mask & (1 << idx))
            assert p.summaries["cold"].saved_locally_mask & (1 << idx)


def test_without_combining_closed_procs_propagate_everything():
    src = """
    func work(x) { return x + 1; }
    func cold(n) {
        if (n > 100) {
            var v = n * 3;
            var w = work(v) + work(v + 1) + work(v + 2);
            return v + w;
        }
        return n;
    }
    func main() { print cold(1); }
    """
    p = plan(src, shrink_wrap=True, combine=False)
    assert p.plans["cold"].wrapped == {}
    assert p.summaries["cold"].saved_locally_mask == 0


def test_intra_mode_has_no_summaries_in_force():
    opts = PlanOptions(convention=DEFAULT_CONVENTION, ipra=False)
    p = plan_program(lower_opt(CHAIN), opts)
    for fnplan in p.plans.values():
        assert fnplan.mode == "intra"
        for m in fnplan.alloc.call_clobbers.values():
            assert not (m & CALLEE_SAVED_MASK)


def test_externally_visible_disables_closure():
    p = plan(CHAIN, externally_visible=True)
    for name in ("level0", "level1", "level2"):
        assert p.plans[name].mode == "open"
