"""Copy propagation (§6.1).

A local (per-basic-block) pass: after ``$x = y;`` later reads of ``x``
become reads of ``y`` until either is redefined.  Sound for aggregates
too — a copy is a pointer alias in ESP (§5.2), so both names denote
the same object.

The ESP compiler runs this per process *before* combining them into
one C function, where the C compiler could no longer see it (§6.1).

The pass derives each instruction's defs and uses once it has rewritten
it; the pipeline hands them to dead-code elimination's liveness.
"""

from __future__ import annotations

from repro.lang import ast
from repro.ir import nodes as ir
from repro.ir.cfg import block_starts
from repro.ir.liveness import instr_defs_uses


class _CopyEnv:
    """Active copy pairs inside one basic block."""

    def __init__(self):
        # dest unique name -> source Var prototype (name, unique_name).
        self.copies: dict[str, tuple[str, str]] = {}

    def kill(self, var: str) -> None:
        self.copies.pop(var, None)
        for dest in [d for d, (_, src) in self.copies.items() if src == var]:
            del self.copies[dest]

    def record(self, dest: str, src: ast.Var) -> None:
        src_unique = getattr(src, "unique_name", None)
        if src_unique is None:
            return
        # Transitively chase: if src is itself a copy, use its source.
        name, unique = src.name, src_unique
        if unique in self.copies:
            name, unique = self.copies[unique]
        self.copies[dest] = (name, unique)


class CopyPropagator:
    """Rewrites variable reads through active copies; counts rewrites.
    ``defs_uses`` holds each instruction's (defs, uses) after the run."""

    def __init__(self):
        self.count = 0
        self.defs_uses: list[tuple[set[str], set[str]]] = []

    def run(self, process: ir.IRProcess) -> int:
        starts = block_starts(process)
        defs_uses = self.defs_uses
        env = _CopyEnv()
        for pc, instr in enumerate(process.instrs):
            if pc in starts:
                env = _CopyEnv()
            self._rewrite_instr_uses(instr, env)
            du = instr_defs_uses(instr)
            defs_uses.append(du)
            for var in du[0]:
                env.kill(var)
            if isinstance(instr, ir.Decl) and isinstance(instr.expr, ast.Var):
                env.record(instr.var, instr.expr)
            elif (
                isinstance(instr, ir.Assign)
                and isinstance(instr.target, ast.Var)
                and isinstance(instr.expr, ast.Var)
            ):
                dest = getattr(instr.target, "unique_name", None)
                if dest is not None:
                    env.record(dest, instr.expr)
        return self.count

    # -- rewriting -----------------------------------------------------------

    def _rewrite_instr_uses(self, instr: ir.Instr, env: _CopyEnv) -> None:
        if isinstance(instr, ir.Decl):
            instr.expr = self._rw(instr.expr, env)
        elif isinstance(instr, ir.Assign):
            # The *target* of an assignment is not a read of the variable
            # itself, but index/field bases are reads.
            if isinstance(instr.target, (ast.Index, ast.FieldAccess)):
                instr.target = self._rw(instr.target, env)
            instr.expr = self._rw(instr.expr, env)
        elif isinstance(instr, ir.Match):
            instr.expr = self._rw(instr.expr, env)
        elif isinstance(instr, ir.Out):
            instr.expr = self._rw(instr.expr, env)
        elif isinstance(instr, ir.Branch):
            instr.cond = self._rw(instr.cond, env)
        elif isinstance(instr, (ir.Link, ir.Unlink)):
            instr.expr = self._rw(instr.expr, env)
        elif isinstance(instr, ir.Assert):
            instr.cond = self._rw(instr.cond, env)
        elif isinstance(instr, ir.Print):
            instr.args = [self._rw(a, env) for a in instr.args]
        # Alt guards/arms are evaluated at the block boundary where other
        # processes may have run; copies within the block still hold (no
        # shared state), but arms start new blocks — skip for simplicity.

    def _rw(self, e: ast.Expr | None, env: _CopyEnv) -> ast.Expr | None:
        if e is None:
            return None
        if isinstance(e, ast.Var):
            unique = getattr(e, "unique_name", None)
            if unique is not None and unique in env.copies:
                name, new_unique = env.copies[unique]
                replacement = ast.Var(e.span, name=name)
                replacement.unique_name = new_unique
                replacement.type = e.type
                self.count += 1
                return replacement
            return e
        if isinstance(e, ast.Unary):
            e.operand = self._rw(e.operand, env)
        elif isinstance(e, ast.Binary):
            e.left = self._rw(e.left, env)
            e.right = self._rw(e.right, env)
        elif isinstance(e, ast.Index):
            e.base = self._rw(e.base, env)
            e.index = self._rw(e.index, env)
        elif isinstance(e, ast.FieldAccess):
            e.base = self._rw(e.base, env)
        elif isinstance(e, ast.RecordLit):
            e.items = [self._rw(i, env) for i in e.items]
        elif isinstance(e, ast.UnionLit):
            e.value = self._rw(e.value, env)
        elif isinstance(e, ast.ArrayFill):
            e.count = self._rw(e.count, env)
            e.fill = self._rw(e.fill, env)
        elif isinstance(e, ast.ArrayLit):
            e.items = [self._rw(i, env) for i in e.items]
        elif isinstance(e, ast.Cast):
            e.operand = self._rw(e.operand, env)
        return e


def propagate_copies(process: ir.IRProcess) -> int:
    """Run local copy propagation; returns the number of reads rewritten."""
    return CopyPropagator().run(process)
