"""Live-variable analysis over the IR.

A classic backwards may-analysis at instruction granularity (ESP
processes are small — a few hundred instructions — so per-instruction
sets are cheap).  Used by dead-code elimination and by the
allocation-avoidance pass (cast elision needs "operand dead after
here", §4.2).

The fixpoint is a worklist over instructions: an instruction is
revisited only when the live-in set of one of its successors grew.  A
caller that already holds every instruction's defs and uses (copy
propagation derives them as it rewrites) passes them in, so one
derivation serves both passes.
"""

from __future__ import annotations

from repro.lang import ast
from repro.ir import nodes as ir


def expr_uses(e: ast.Expr | None, acc: set[str]) -> None:
    """Collect unique names of variables read by ``e``."""
    if e is None:
        return
    if isinstance(e, ast.Var):
        unique = getattr(e, "unique_name", None)
        if unique is not None:
            acc.add(unique)
        return
    if isinstance(e, ast.Unary):
        expr_uses(e.operand, acc)
    elif isinstance(e, ast.Binary):
        expr_uses(e.left, acc)
        expr_uses(e.right, acc)
    elif isinstance(e, ast.Index):
        expr_uses(e.base, acc)
        expr_uses(e.index, acc)
    elif isinstance(e, ast.FieldAccess):
        expr_uses(e.base, acc)
    elif isinstance(e, ast.RecordLit):
        for item in e.items:
            expr_uses(item, acc)
    elif isinstance(e, ast.UnionLit):
        expr_uses(e.value, acc)
    elif isinstance(e, ast.ArrayFill):
        expr_uses(e.count, acc)
        expr_uses(e.fill, acc)
    elif isinstance(e, ast.ArrayLit):
        for item in e.items:
            expr_uses(item, acc)
    elif isinstance(e, ast.Cast):
        expr_uses(e.operand, acc)


def pattern_defs_uses(p: ast.Pattern | None, defs: set[str], uses: set[str]) -> None:
    """Binders define; equality constraints and store-target addressing use."""
    if p is None:
        return
    if isinstance(p, ast.PBind):
        unique = getattr(p, "unique_name", None)
        if unique is not None:
            defs.add(unique)
        return
    if isinstance(p, ast.PEq):
        if getattr(p, "is_store", False):
            target = p.expr
            if isinstance(target, ast.Var):
                unique = getattr(target, "unique_name", None)
                if unique is not None:
                    defs.add(unique)
            else:
                # Storing through an index/field reads the base/index.
                expr_uses(target, uses)
        else:
            expr_uses(p.expr, uses)
        return
    if isinstance(p, ast.PRecord):
        for item in p.items:
            pattern_defs_uses(item, defs, uses)
        return
    if isinstance(p, ast.PUnion):
        pattern_defs_uses(p.value, defs, uses)


def instr_defs_uses(instr: ir.Instr) -> tuple[set[str], set[str]]:
    """(defs, uses) of one instruction."""
    defs: set[str] = set()
    uses: set[str] = set()
    if isinstance(instr, ir.Decl):
        defs.add(instr.var)
        expr_uses(instr.expr, uses)
    elif isinstance(instr, ir.Assign):
        target = instr.target
        if isinstance(target, ast.Var):
            defs.add(getattr(target, "unique_name", target.name))
        else:
            expr_uses(target, uses)
        expr_uses(instr.expr, uses)
    elif isinstance(instr, ir.Match):
        pattern_defs_uses(instr.pattern, defs, uses)
        expr_uses(instr.expr, uses)
    elif isinstance(instr, ir.In):
        pattern_defs_uses(instr.pattern, defs, uses)
    elif isinstance(instr, ir.Out):
        expr_uses(instr.expr, uses)
    elif isinstance(instr, ir.Alt):
        for arm in instr.arms:
            expr_uses(arm.guard, uses)
            if arm.kind == "in":
                pattern_defs_uses(arm.pattern, defs, uses)
            else:
                expr_uses(arm.expr, uses)
    elif isinstance(instr, ir.Branch):
        expr_uses(instr.cond, uses)
    elif isinstance(instr, (ir.Link, ir.Unlink)):
        expr_uses(instr.expr, uses)
    elif isinstance(instr, ir.Assert):
        expr_uses(instr.cond, uses)
    elif isinstance(instr, ir.Print):
        for arg in instr.args:
            expr_uses(arg, uses)
    return defs, uses


def liveness(process: ir.IRProcess,
             defs_uses: list[tuple[set[str], set[str]]] | None = None,
             ) -> tuple[list[set[str]], list[set[str]]]:
    """Compute (live_in, live_out) per PC; ``defs_uses`` holds each PC's
    ``instr_defs_uses`` when the caller has them.  Sets may be shared
    between PCs; callers only read them."""
    instrs = process.instrs
    n = len(instrs)
    if defs_uses is None:
        defs_uses = [instr_defs_uses(instr) for instr in instrs]
    succs = [[s for s in instr.successors(pc) if s < n]
             for pc, instr in enumerate(instrs)]
    preds: list[list[int]] = [[] for _ in range(n)]
    for pc, targets in enumerate(succs):
        for succ in targets:
            preds[succ].append(pc)
    empty: set[str] = set()
    live_in: list[set[str]] = [empty] * n
    live_out: list[set[str]] = [empty] * n
    pending = [True] * n
    work = list(range(n))  # popped from the end: backwards first
    while work:
        pc = work.pop()
        pending[pc] = False
        targets = succs[pc]
        if len(targets) == 1:
            out = live_in[targets[0]]
        else:
            out = set()
            for succ in targets:
                out |= live_in[succ]
        live_out[pc] = out
        defs, uses = defs_uses[pc]
        new_in = uses | (out - defs) if defs else uses | out
        if new_in != live_in[pc]:
            live_in[pc] = new_in
            for pred in preds[pc]:
                if not pending[pred]:
                    pending[pred] = True
                    work.append(pred)
    return live_in, live_out
