"""Constant folding over IR expressions.

Folds literal arithmetic/logic, inlines ``const`` references, and
turns branches on constant conditions into jumps.  Runs per process
before the processes are combined, where the semantic information
still exists (§6.1).
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.typecheck import NegativeShift, _fold_binary
from repro.ir import nodes as ir


class Folder:
    """Bottom-up expression folder; counts rewrites for the stats."""

    def __init__(self):
        self.count = 0

    def fold_expr(self, e: ast.Expr | None) -> ast.Expr | None:
        if e is None:
            return None
        if isinstance(e, ast.Var):
            const = getattr(e, "const_value", None)
            if const is not None:
                self.count += 1
                return self._literal(e, const)
            return e
        if isinstance(e, ast.Unary):
            e.operand = self.fold_expr(e.operand)
            if isinstance(e.operand, ast.IntLit) and e.op == "-":
                self.count += 1
                return self._literal(e, -e.operand.value)
            if isinstance(e.operand, ast.BoolLit) and e.op == "!":
                self.count += 1
                return self._literal(e, not e.operand.value)
            return e
        if isinstance(e, ast.Binary):
            e.left = self.fold_expr(e.left)
            e.right = self.fold_expr(e.right)
            lv = _literal_value(e.left)
            rv = _literal_value(e.right)
            if lv is not None and rv is not None:
                try:
                    value = _fold_binary(e.op, lv, rv)
                except (ZeroDivisionError, NegativeShift):
                    return e  # let the runtime trap
                self.count += 1
                return self._literal(e, value)
            # Short-circuit simplifications with one constant side.
            if e.op == "&&":
                if lv is True:
                    self.count += 1
                    return e.right
                if lv is False:
                    self.count += 1
                    return self._literal(e, False)
            if e.op == "||":
                if lv is False:
                    self.count += 1
                    return e.right
                if lv is True:
                    self.count += 1
                    return self._literal(e, True)
            return e
        if isinstance(e, ast.Index):
            e.base = self.fold_expr(e.base)
            e.index = self.fold_expr(e.index)
            return e
        if isinstance(e, ast.FieldAccess):
            e.base = self.fold_expr(e.base)
            return e
        if isinstance(e, ast.RecordLit):
            e.items = [self.fold_expr(i) for i in e.items]
            return e
        if isinstance(e, ast.UnionLit):
            e.value = self.fold_expr(e.value)
            return e
        if isinstance(e, ast.ArrayFill):
            e.count = self.fold_expr(e.count)
            e.fill = self.fold_expr(e.fill)
            return e
        if isinstance(e, ast.ArrayLit):
            e.items = [self.fold_expr(i) for i in e.items]
            return e
        if isinstance(e, ast.Cast):
            e.operand = self.fold_expr(e.operand)
            return e
        return e

    def _literal(self, original: ast.Expr, value) -> ast.Expr:
        if isinstance(value, bool):
            lit: ast.Expr = ast.BoolLit(original.span, value=value)
        else:
            lit = ast.IntLit(original.span, value=value)
        lit.type = original.type
        return lit

    def fold_pattern(self, p: ast.Pattern | None) -> None:
        if p is None:
            return
        if isinstance(p, ast.PEq) and not getattr(p, "is_store", False):
            p.expr = self.fold_expr(p.expr)
        elif isinstance(p, ast.PRecord):
            for item in p.items:
                self.fold_pattern(item)
        elif isinstance(p, ast.PUnion):
            self.fold_pattern(p.value)


def fold_process(process: ir.IRProcess) -> int:
    """Fold all expressions in one process; returns rewrite count."""
    folder = Folder()
    for pc, instr in enumerate(process.instrs):
        if isinstance(instr, ir.Decl):
            instr.expr = folder.fold_expr(instr.expr)
        elif isinstance(instr, ir.Assign):
            instr.target = folder.fold_expr(instr.target)
            instr.expr = folder.fold_expr(instr.expr)
        elif isinstance(instr, ir.Match):
            folder.fold_pattern(instr.pattern)
            instr.expr = folder.fold_expr(instr.expr)
        elif isinstance(instr, ir.In):
            folder.fold_pattern(instr.pattern)
        elif isinstance(instr, ir.Out):
            instr.expr = folder.fold_expr(instr.expr)
        elif isinstance(instr, ir.Alt):
            for arm in instr.arms:
                arm.guard = folder.fold_expr(arm.guard)
                if arm.kind == "in":
                    folder.fold_pattern(arm.pattern)
                else:
                    arm.expr = folder.fold_expr(arm.expr)
        elif isinstance(instr, ir.Branch):
            instr.cond = folder.fold_expr(instr.cond)
            if isinstance(instr.cond, ast.BoolLit):
                target = instr.true_target if instr.cond.value else instr.false_target
                process.instrs[pc] = ir.Jump(instr.span, target=target)
                folder.count += 1
        elif isinstance(instr, (ir.Link, ir.Unlink)):
            instr.expr = folder.fold_expr(instr.expr)
        elif isinstance(instr, ir.Assert):
            instr.cond = folder.fold_expr(instr.cond)
        elif isinstance(instr, ir.Print):
            instr.args = [folder.fold_expr(a) for a in instr.args]
    return folder.count


def _literal_value(e: ast.Expr | None):
    if isinstance(e, ast.IntLit):
        return e.value
    if isinstance(e, ast.BoolLit):
        return e.value
    return None
