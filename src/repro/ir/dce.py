"""Dead-code elimination (§6.1).

Two parts:

* unreachable instructions become ``Nop`` (and are compacted away by
  the pipeline);
* a ``Decl``/variable-``Assign`` whose destination is dead afterwards
  is removed when its right-hand side is *refcount-neutral* — removing
  it cannot change the reference count of any object that outlives the
  statement.  Allocations that embed aggregate children are kept: the
  embedding links the children (§4.4), and deleting it would change
  behaviour the programmer's explicit ``unlink`` calls rely on.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.types import Type
from repro.ir import nodes as ir
from repro.ir.cfg import reachable_pcs
from repro.ir.liveness import liveness


def _refcount_neutral(e: ast.Expr | None) -> bool:
    """True when evaluating-and-discarding ``e`` has no effect on any
    object that outlives the statement."""
    if e is None:
        return True
    if isinstance(e, (ast.IntLit, ast.BoolLit, ast.Var, ast.ProcessId)):
        return True
    if isinstance(e, ast.Unary):
        return _refcount_neutral(e.operand)
    if isinstance(e, ast.Binary):
        return _refcount_neutral(e.left) and _refcount_neutral(e.right)
    if isinstance(e, (ast.Index, ast.FieldAccess)):
        # A read; removing a read is safe (it can only remove a trap).
        return True
    if isinstance(e, (ast.RecordLit, ast.UnionLit, ast.ArrayLit, ast.ArrayFill)):
        # Safe only when no aggregate children get linked by construction.
        items: list[ast.Expr]
        if isinstance(e, ast.RecordLit):
            items = e.items
        elif isinstance(e, ast.UnionLit):
            items = [e.value]
        elif isinstance(e, ast.ArrayLit):
            items = e.items
        else:
            items = [e.fill]
        for item in items:
            t: Type | None = item.type
            if t is not None and t.is_aggregate():
                return False
            if not _refcount_neutral(item):
                return False
        return True
    if isinstance(e, ast.Cast):
        # The cast's copy is fresh; discarding it is safe when building
        # it was (children of the copy are fresh as well).
        return _refcount_neutral(e.operand)
    return False


def eliminate_dead_code(process: ir.IRProcess,
                        defs_uses: list[tuple[set[str], set[str]]] | None = None,
                        ) -> int:
    """Remove dead instructions in place; returns how many were removed.
    ``defs_uses`` holds each instruction's defs and uses when the caller
    has derived them (see :func:`repro.ir.liveness.liveness`); the entry
    of an instruction this turns into a ``Nop`` is emptied."""
    removed = 0
    reachable = reachable_pcs(process)
    for pc in range(len(process.instrs)):
        if pc not in reachable and not isinstance(process.instrs[pc], ir.Nop):
            process.instrs[pc] = ir.Nop(process.instrs[pc].span)
            removed += 1
            if defs_uses is not None:
                defs_uses[pc] = (set(), set())
    _, live_out = liveness(process, defs_uses)
    for pc, instr in enumerate(process.instrs):
        if isinstance(instr, ir.Decl):
            if instr.var not in live_out[pc] and _refcount_neutral(instr.expr):
                process.instrs[pc] = ir.Nop(instr.span)
                removed += 1
        elif isinstance(instr, ir.Assign) and isinstance(instr.target, ast.Var):
            dest = getattr(instr.target, "unique_name", None)
            if dest is not None and dest not in live_out[pc] and _refcount_neutral(instr.expr):
                process.instrs[pc] = ir.Nop(instr.span)
                removed += 1
    return removed


def compact_nops(process: ir.IRProcess) -> int:
    """Delete ``Nop`` instructions, remapping all jump targets."""
    instrs = process.instrs
    keep = [pc for pc, instr in enumerate(instrs) if not isinstance(instr, ir.Nop)]
    if len(keep) == len(instrs):
        return 0
    remap: dict[int, int] = {}
    new_index = 0
    for pc in range(len(instrs)):
        remap[pc] = new_index
        if not isinstance(instrs[pc], ir.Nop):
            new_index += 1
    # Targets past the end (or pointing at a trailing Nop) clamp to end.
    total = len(keep)

    def fix(target: int) -> int:
        return remap.get(target, total) if target < len(instrs) else total

    new_instrs = []
    for pc in keep:
        instr = instrs[pc]
        if isinstance(instr, ir.Jump):
            instr.target = fix(instr.target)
        elif isinstance(instr, ir.Branch):
            instr.true_target = fix(instr.true_target)
            instr.false_target = fix(instr.false_target)
        elif isinstance(instr, ir.Alt):
            for arm in instr.arms:
                arm.body_target = fix(arm.body_target)
        new_instrs.append(instr)
    removed = len(instrs) - len(new_instrs)
    process.instrs = new_instrs
    return removed
