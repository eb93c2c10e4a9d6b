"""Unit tests for the middle end: lowering, block starts, liveness, and each
optimization pass."""

import pytest

from repro.api import compile_source_with_stats
from repro.ir import OptLevel, lower
from repro.ir import nodes as ir
from repro.ir.cfg import block_starts, reachable_pcs
from repro.ir.copyprop import propagate_copies
from repro.ir.dce import compact_nops, eliminate_dead_code
from repro.ir.fold import fold_process
from repro.ir.liveness import instr_defs_uses, liveness
from repro.lang.program import frontend


def lower_source(src, opt=False):
    front = frontend(src)
    program = lower(front)
    return program


def proc_of(src, name=None):
    program = lower_source(src)
    return program.processes[0] if name is None else program.process(name)


WRAP = "channel c: int\nprocess p {{ {body} }}\nprocess q {{ in( c, $x); print(x); }}"


# -- lowering ----------------------------------------------------------------------


def test_lowering_straight_line():
    proc = proc_of(WRAP.format(body="$a = 1; $b = a + 2; print(b); out( c, b);"))
    kinds = [type(i).__name__ for i in proc.instrs]
    assert kinds == ["Decl", "Decl", "Print", "Out", "Halt"]


def test_lowering_if_else_targets():
    proc = proc_of(WRAP.format(body="$a = 1; if (a > 0) { print(1); } else { print(2); } out( c, a);"))
    branch = next(i for i in proc.instrs if isinstance(i, ir.Branch))
    assert isinstance(proc.instrs[branch.true_target], ir.Print)
    assert isinstance(proc.instrs[branch.false_target], ir.Print)


def test_lowering_while_loops_back():
    proc = proc_of(WRAP.format(body="$i = 0; while (i < 3) { i = i + 1; } out( c, i);"))
    jumps = [i for i in proc.instrs if isinstance(i, ir.Jump)]
    branch = next(i for i in proc.instrs if isinstance(i, ir.Branch))
    # the loop-back jump targets the branch
    assert any(j.target == proc.instrs.index(branch) for j in jumps)


def test_lowering_break_exits_loop():
    proc = proc_of(WRAP.format(
        body="$i = 0; while (true) { if (i == 2) { break; } i = i + 1; } out( c, i);"
    ))
    # The break Jump must land on the instruction after the loop (the Out).
    out_pc = next(pc for pc, i in enumerate(proc.instrs) if isinstance(i, ir.Out))
    assert any(
        isinstance(i, ir.Jump) and i.target == out_pc for i in proc.instrs
    )


def test_lowering_alt_arms():
    src = """
channel a: int
channel b: int
process p {
    alt {
        case( in( a, $x)) { print(x); }
        case( in( b, $y)) { print(y); }
    }
}
process w { out( a, 1); out( b, 2); }
"""
    proc = proc_of(src, "p")
    alt = next(i for i in proc.instrs if isinstance(i, ir.Alt))
    assert len(alt.arms) == 2
    for arm in alt.arms:
        assert isinstance(proc.instrs[arm.body_target], ir.Print)


def test_state_points_match_blocking_instrs():
    src = """
channel a: int
process p { while (true) { in( a, $x); out( a, x); } }
"""
    # p both reads and writes `a` — invalid port-wise? one wildcard reader
    # is p itself; sending to oneself never matches, but lowering is
    # structural so it still works for this test.
    proc = proc_of(src, "p")
    points = proc.state_points()
    assert len(points) == 2
    assert all(proc.instrs[pc].is_blocking() for pc in points)


# -- block starts ------------------------------------------------------------------------


def test_block_starts_split_at_every_control_transfer():
    proc = proc_of(WRAP.format(
        body="$i = 0; while (i < 3) { if (i == 1) { print(i); } i = i + 1; } out( c, i);"
    ))
    starts = block_starts(proc)
    # Only the entry, jump targets and the PCs after a control transfer
    # start blocks; every other PC continues its block straight on.
    for pc, instr in enumerate(proc.instrs):
        transfers = isinstance(instr, (ir.Jump, ir.Branch, ir.Alt, ir.Halt))
        if transfers:
            assert set(instr.successors(pc)) <= starts
        follows = pc + 1 < len(proc.instrs) and (pc + 1 in starts)
        targeted = any(pc + 1 in other.successors(at)
                       for at, other in enumerate(proc.instrs)
                       if isinstance(other, (ir.Jump, ir.Branch, ir.Alt)))
        if follows:
            assert transfers or targeted, pc
    assert 0 in starts and len(starts) > 2


def test_reachable_pcs_excludes_code_after_halt():
    proc = proc_of(WRAP.format(body="out( c, 1);"))
    assert reachable_pcs(proc) == set(range(len(proc.instrs)))


# -- liveness ----------------------------------------------------------------------------


def test_defs_uses_of_decl():
    proc = proc_of(WRAP.format(body="$a = 1; $b = a + 2; out( c, b);"))
    defs, uses = instr_defs_uses(proc.instrs[1])
    assert defs == {"b.1"}
    assert uses == {"a.0"}


def test_liveness_backwards_flow():
    proc = proc_of(WRAP.format(body="$a = 1; $b = a + 2; out( c, b);"))
    live_in, live_out = liveness(proc)
    assert "a.0" in live_out[0]
    assert "b.1" in live_out[1]
    assert "a.0" not in live_out[1]  # dead after its only use


def test_liveness_through_loop():
    proc = proc_of(WRAP.format(
        body="$total = 0; $i = 0; while (i < 3) { total = total + i; i = i + 1; } out( c, total);"
    ))
    live_in, _ = liveness(proc)
    branch_pc = next(pc for pc, i in enumerate(proc.instrs) if isinstance(i, ir.Branch))
    assert {"total.0", "i.1"} <= live_in[branch_pc]


# -- folding -----------------------------------------------------------------------------


def test_fold_constant_arithmetic():
    proc = proc_of(WRAP.format(body="$a = 2 * 3 + 4; out( c, a);"))
    count = fold_process(proc)
    assert count >= 2
    decl = proc.instrs[0]
    from repro.lang import ast

    assert isinstance(decl.expr, ast.IntLit) and decl.expr.value == 10


def test_fold_const_reference():
    src = "const K = 7;\n" + WRAP.format(body="$a = K + 1; out( c, a);")
    proc = proc_of(src)
    fold_process(proc)
    from repro.lang import ast

    assert isinstance(proc.instrs[0].expr, ast.IntLit)
    assert proc.instrs[0].expr.value == 8


def test_fold_branch_on_constant_becomes_jump():
    proc = proc_of(WRAP.format(body="if (1 < 2) { print(1); } else { print(2); } out( c, 0);"))
    fold_process(proc)
    assert not any(isinstance(i, ir.Branch) for i in proc.instrs)


def test_fold_short_circuit():
    proc = proc_of(WRAP.format(body="$b = true; $x = false && b; $y = true || b; out( c, 0);"))
    fold_process(proc)
    from repro.lang import ast

    assert isinstance(proc.instrs[1].expr, ast.BoolLit)
    assert proc.instrs[1].expr.value is False
    assert isinstance(proc.instrs[2].expr, ast.BoolLit)
    assert proc.instrs[2].expr.value is True


def test_fold_preserves_division_by_zero():
    proc = proc_of(WRAP.format(body="$a = 1 / 0; out( c, a);"))
    fold_process(proc)
    from repro.lang import ast

    assert isinstance(proc.instrs[0].expr, ast.Binary)  # left for runtime trap


# -- copy propagation ----------------------------------------------------------------------


def test_copy_propagation_rewrites_uses():
    proc = proc_of(WRAP.format(body="$a = 1; $b = a; out( c, b + b);"))
    count = propagate_copies(proc)
    assert count >= 2
    from repro.ir.liveness import expr_uses

    uses = set()
    expr_uses(proc.instrs[2].expr, uses)
    assert uses == {"a.0"}


def test_copy_propagation_stops_at_redefinition():
    proc = proc_of(WRAP.format(body="$a = 1; $b = a; a = 5; out( c, b);"))
    propagate_copies(proc)
    from repro.ir.liveness import expr_uses

    uses = set()
    expr_uses(proc.instrs[3].expr, uses)
    # b cannot be rewritten to a: a changed in between.
    assert uses == {"b.1"}


def test_copy_propagation_transitive():
    proc = proc_of(WRAP.format(body="$a = 1; $b = a; $d = b; out( c, d);"))
    propagate_copies(proc)
    from repro.ir.liveness import expr_uses

    uses = set()
    expr_uses(proc.instrs[3].expr, uses)
    assert uses == {"a.0"}


# -- DCE ----------------------------------------------------------------------------------


def test_dce_removes_dead_scalar_decl():
    proc = proc_of(WRAP.format(body="$dead = 41; out( c, 1);"))
    removed = eliminate_dead_code(proc)
    assert removed >= 1


def test_dce_keeps_allocation_with_aggregate_children():
    # Embedding links the child (§4.4); deleting the embed would change
    # refcounts the program relies on.
    src = """
type dataT = array of int
channel c: int
process p {
    $child: dataT = { 2 -> 0 };
    $wrapper: record of { d: dataT } = { child };
    out( c, child[0]);
    unlink( child);
    unlink( child);
}
process q { in( c, $x); print(x); }
"""
    proc = proc_of(src, "p")
    before = len([i for i in proc.instrs if not isinstance(i, ir.Nop)])
    eliminate_dead_code(proc)
    kept = [i for i in proc.instrs if isinstance(i, ir.Decl)]
    # `wrapper` is dead but its construction linked `child`: must stay.
    assert any(i.var.startswith("wrapper") for i in kept)


def test_compact_nops_remaps_targets():
    proc = proc_of(WRAP.format(body="$dead = 1; $i = 0; while (i < 2) { i = i + 1; } out( c, i);"))
    eliminate_dead_code(proc)
    removed = compact_nops(proc)
    assert removed >= 1
    # Program still structurally sound: all targets in range.
    n = len(proc.instrs)
    for pc, instr in enumerate(proc.instrs):
        for succ in instr.successors(pc):
            assert 0 <= succ <= n


# -- whole pipeline --------------------------------------------------------------------------


def test_pipeline_stats_and_idempotence():
    src = """
const K = 4;
channel c: int
process p {
    $a = K * 2;
    $b = a;
    $dead = 99;
    out( c, b + 1);
}
process q { in( c, $x); print(x); }
"""
    program, stats, _front = compile_source_with_stats(src)
    assert stats.folds >= 1
    assert stats.dead_removed >= 1
    before, after = stats.per_process_instrs["p"]
    assert after < before


def test_opt_level_none_is_identity():
    src = WRAP.format(body="$dead = 1; out( c, 2);")
    program, stats, _ = compile_source_with_stats(src, opt_level=OptLevel.NONE)
    assert stats.total() == 0
    assert any(
        isinstance(i, ir.Decl) for i in program.processes[0].instrs
    )
