"""Cross-process data-flow analysis — the paper's stated future work.

§6.2: "data-flow analysis is currently performed on a per process
basis.  We plan to extend data-flow analysis across processes."

The whole-program, static-channel design makes this direct: the
compiler sees every send site of every channel.  When *all* of them
put the same compile-time constant in some message component, every
receive binder of that component is that constant, and the receiving
process can be folded with that knowledge.

Soundness conditions per (channel, component):

* the channel has no external writer (host code could send anything);
* every send site (plain ``out`` and alt out-arms) supplies the
  component as the same ``int``/``bool`` literal — whole-message sends
  of variables disqualify the channel;
* the receiving binder is never reassigned in its process (it is a
  pure name for the received value).

The propagated facts feed the ordinary per-process constant folder, so
downstream copy propagation/DCE/branch folding all benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast
from repro.ir import nodes as ir
from repro.ir.liveness import instr_defs_uses


@dataclass
class CrossProcStats:
    channels_analyzed: int = 0
    constant_components: int = 0
    binders_propagated: int = 0
    facts: dict[str, dict[str, int | bool]] = field(default_factory=dict)


def _literal_value(e: ast.Expr | None):
    if isinstance(e, ast.IntLit):
        return e.value
    if isinstance(e, ast.BoolLit):
        return e.value
    return None


def _component_values(sites: list[ast.Expr]):
    """Per-component constant values across every send site of a
    channel, or None when they have none in common.

    The result is a list (one slot per record component, or a single
    slot for scalar channels) whose entries are the common literal
    value or ``None`` when sites disagree / are not literals.
    """
    # Scalar channel: each site is the message expression itself.
    first = sites[0]
    if not isinstance(first, ast.RecordLit):
        values = [_literal_value(site) for site in sites]
        if any(v is None for v in values) or len(set(values)) != 1:
            return None
        return [values[0]]
    arity = len(first.items)
    columns: list = []
    for i in range(arity):
        column = set()
        ok = True
        for site in sites:
            if not isinstance(site, ast.RecordLit) or len(site.items) != arity:
                ok = False
                break
            value = _literal_value(site.items[i])
            if value is None:
                ok = False
                break
            column.add(value)
        columns.append(column.pop() if ok and len(column) == 1 else None)
    return columns


def _reassigned_vars(process: ir.IRProcess) -> set[str]:
    """Variables defined at more than one instruction (so a receive
    binder's value cannot be assumed constant)."""
    counts: dict[str, int] = {}
    for instr in process.instrs:
        defs, _ = instr_defs_uses(instr)
        for var in defs:
            counts[var] = counts.get(var, 0) + 1
    return {var for var, n in counts.items() if n > 1}


def _binder_facts(patterns: list[ast.Pattern], columns, unstable: set[str],
                  facts: dict) -> int:
    """Record constant facts for the binders of ``patterns``, the
    receive patterns of one process on one channel."""
    found = 0
    for pattern in patterns:
        if isinstance(pattern, ast.PRecord):
            for i, item in enumerate(pattern.items):
                if (
                    isinstance(item, ast.PBind)
                    and i < len(columns)
                    and columns[i] is not None
                    and item.unique_name not in unstable
                ):
                    facts[item.unique_name] = columns[i]
                    found += 1
        elif isinstance(pattern, ast.PBind):
            if len(columns) == 1 and columns[0] is not None \
                    and pattern.unique_name not in unstable:
                facts[pattern.unique_name] = columns[0]
                found += 1
    return found


def analyze_cross_process_constants(program: ir.IRProgram) -> CrossProcStats:
    """Find message components that are the same constant at every send
    site, and map the receiving binders to those constants.

    One scan of every process collects the send sites of each channel
    and each process's receive patterns by channel; a process's
    reassigned variables are derived only if one of its receives can
    take a constant."""
    stats = CrossProcStats()
    sends: dict[str, list[ast.Expr]] = {}
    receives: list[dict[str, list[ast.Pattern]]] = []
    for process in program.processes:
        patterns: dict[str, list[ast.Pattern]] = {}
        for instr in process.instrs:
            if isinstance(instr, ir.Out):
                sends.setdefault(instr.channel, []).append(instr.expr)
            elif isinstance(instr, ir.In):
                patterns.setdefault(instr.channel, []).append(instr.pattern)
            elif isinstance(instr, ir.Alt):
                for arm in instr.arms:
                    if arm.kind == "out":
                        sends.setdefault(arm.channel, []).append(arm.expr)
                    elif arm.kind == "in":
                        patterns.setdefault(arm.channel, []).append(arm.pattern)
        receives.append(patterns)
    unstable: dict[str, set[str]] = {}
    for channel, info in program.channels.items():
        sites = sends.get(channel)
        if info.external == "writer" or not sites:
            continue
        columns = _component_values(sites)
        if columns is None:
            continue
        stats.channels_analyzed += 1
        constant_columns = sum(1 for v in columns if v is not None)
        if not constant_columns:
            continue
        stats.constant_components += constant_columns
        for process, patterns in zip(program.processes, receives):
            facts = stats.facts.setdefault(process.name, {})
            if channel not in patterns:
                continue
            if process.name not in unstable:
                unstable[process.name] = _reassigned_vars(process)
            stats.binders_propagated += _binder_facts(
                patterns[channel], columns, unstable[process.name], facts
            )
    return stats


def apply_cross_process_constants(program: ir.IRProgram) -> CrossProcStats:
    """Run the analysis and fold the facts into each process (reads of
    a constant binder become the literal)."""
    from repro.ir.fold import fold_process

    stats = analyze_cross_process_constants(program)
    for process in program.processes:
        facts = stats.facts.get(process.name)
        if not facts:
            continue
        _seed_const_reads(process, facts)
        fold_process(process)
    return stats


def _seed_const_reads(process: ir.IRProcess, facts: dict) -> None:
    """Stamp Var reads of constant binders with ``const_value`` so the
    ordinary folder inlines them (same mechanism as `const` decls)."""

    def visit(e: ast.Expr | None):
        if e is None:
            return
        if isinstance(e, ast.Var):
            unique = getattr(e, "unique_name", None)
            if unique in facts:
                e.const_value = facts[unique]
            return
        for child in _expr_children(e):
            visit(child)

    for instr in process.instrs:
        if isinstance(instr, ir.Decl):
            visit(instr.expr)
        elif isinstance(instr, ir.Assign):
            visit(instr.target)
            visit(instr.expr)
        elif isinstance(instr, ir.Match):
            visit(instr.expr)
        elif isinstance(instr, ir.Out):
            visit(instr.expr)
        elif isinstance(instr, ir.Branch):
            visit(instr.cond)
        elif isinstance(instr, ir.Alt):
            for arm in instr.arms:
                visit(arm.guard)
                if arm.kind == "out":
                    visit(arm.expr)
        elif isinstance(instr, (ir.Link, ir.Unlink)):
            visit(instr.expr)
        elif isinstance(instr, ir.Assert):
            visit(instr.cond)
        elif isinstance(instr, ir.Print):
            for arg in instr.args:
                visit(arg)


def _expr_children(e: ast.Expr):
    if isinstance(e, ast.Unary):
        return [e.operand]
    if isinstance(e, ast.Binary):
        return [e.left, e.right]
    if isinstance(e, ast.Index):
        return [e.base, e.index]
    if isinstance(e, ast.FieldAccess):
        return [e.base]
    if isinstance(e, ast.RecordLit):
        return list(e.items)
    if isinstance(e, ast.UnionLit):
        return [e.value]
    if isinstance(e, ast.ArrayFill):
        return [e.count, e.fill]
    if isinstance(e, ast.ArrayLit):
        return list(e.items)
    if isinstance(e, ast.Cast):
        return [e.operand]
    return []
