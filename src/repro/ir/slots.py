"""Variable-slot resolution (§4/§6.1: locals become C block scalars).

The paper's C backend compiles every ESP local into a member of the
process's state struct, addressed by offset; our runtime mirrors that
by giving each process a dense *frame* — a flat list indexed by slot —
instead of a name-keyed dict.  This pass walks a process's final
(post-optimization) instruction list, collects every unique local name
it can read or write, and assigns each a slot index.

Slots are assigned in sorted-name order so the frame's natural order
*is* the canonical order every state encoding uses (``verify/state.py``,
``verify/reduction.py``): a process is encoded by
its frame in slot order, ``None`` standing for an unset slot, so a
position always stands for the same local and the encoding tells
states apart exactly as ``sorted(locals.items())`` over the bound
names would.
"""

from __future__ import annotations

from repro.lang import ast
from repro.ir import nodes as ir


def _expr_names(e, names: set) -> None:
    if e is None:
        return
    if isinstance(e, ast.Var):
        unique = getattr(e, "unique_name", None)
        if unique is not None:
            names.add(unique)
    elif isinstance(e, ast.Unary):
        _expr_names(e.operand, names)
    elif isinstance(e, ast.Binary):
        _expr_names(e.left, names)
        _expr_names(e.right, names)
    elif isinstance(e, ast.Index):
        _expr_names(e.base, names)
        _expr_names(e.index, names)
    elif isinstance(e, ast.FieldAccess):
        _expr_names(e.base, names)
    elif isinstance(e, (ast.RecordLit, ast.ArrayLit)):
        for item in e.items:
            _expr_names(item, names)
    elif isinstance(e, ast.UnionLit):
        _expr_names(e.value, names)
    elif isinstance(e, ast.ArrayFill):
        _expr_names(e.count, names)
        _expr_names(e.fill, names)
    elif isinstance(e, ast.Cast):
        _expr_names(e.operand, names)


def _pattern_names(p, names: set) -> None:
    if p is None:
        return
    if isinstance(p, ast.PBind):
        names.add(p.unique_name)
    elif isinstance(p, ast.PEq):
        _expr_names(p.expr, names)
    elif isinstance(p, ast.PRecord):
        for item in p.items:
            _pattern_names(item, names)
    elif isinstance(p, ast.PUnion):
        _pattern_names(p.value, names)


def _collect_names(process: ir.IRProcess) -> set:
    names = set(process.locals)
    for instr in process.instrs:
        if isinstance(instr, ir.Decl):
            names.add(instr.var)
            _expr_names(instr.expr, names)
        elif isinstance(instr, ir.Assign):
            _expr_names(instr.target, names)
            _expr_names(instr.expr, names)
        elif isinstance(instr, ir.Match):
            _pattern_names(instr.pattern, names)
            _expr_names(instr.expr, names)
        elif isinstance(instr, ir.Branch):
            _expr_names(instr.cond, names)
        elif isinstance(instr, ir.In):
            _pattern_names(instr.pattern, names)
        elif isinstance(instr, ir.Out):
            _expr_names(instr.expr, names)
        elif isinstance(instr, ir.Alt):
            for arm in instr.arms:
                _expr_names(arm.guard, names)
                _pattern_names(arm.pattern, names)
                _expr_names(arm.expr, names)
        elif isinstance(instr, (ir.Link, ir.Unlink)):
            _expr_names(instr.expr, names)
        elif isinstance(instr, ir.Assert):
            _expr_names(instr.cond, names)
        elif isinstance(instr, ir.Print):
            for arg in instr.args:
                _expr_names(arg, names)
    return names


def resolve_process_slots(process: ir.IRProcess) -> None:
    """Assign every local of ``process`` a dense frame slot (idempotent
    per instruction list; re-run after any pass that rewrites it)."""
    names = sorted(_collect_names(process))
    process.slot_of = {name: slot for slot, name in enumerate(names)}
    process.canon_order = tuple((name, slot) for slot, name in enumerate(names))
    process.nslots = len(names)
    process.slots_resolved = True


def resolve_slots(program: ir.IRProgram) -> None:
    """Resolve frame slots for every process of ``program``."""
    for process in program.processes:
        resolve_process_slots(process)
