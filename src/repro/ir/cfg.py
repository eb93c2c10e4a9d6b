"""Control flow over the flat IR: basic-block starts and reachability.

Blocks are maximal straight-line instruction runs; blocking
instructions (``In``/``Out``/``Alt``) stay inside blocks — they do not
branch except ``Alt``, whose arms start new blocks.
"""

from __future__ import annotations

from repro.ir import nodes as ir


def block_starts(process: ir.IRProcess) -> set[int]:
    """The first PC of every basic block (a PC past the end may be in
    the set too): the entry, every jump target and every PC after a
    control transfer."""
    instrs = process.instrs
    n = len(instrs)
    leaders = {0}
    for pc, instr in enumerate(instrs):
        if isinstance(instr, (ir.Jump, ir.Branch, ir.Alt, ir.Halt)):
            leaders.update(instr.successors(pc))
            if pc + 1 < n:
                leaders.add(pc + 1)
    return leaders


def reachable_pcs(process: ir.IRProcess) -> set[int]:
    """PCs reachable from entry; used by dead-code elimination."""
    seen: set[int] = set()
    stack = [0]
    while stack:
        pc = stack.pop()
        if pc in seen or pc >= len(process.instrs):
            continue
        seen.add(pc)
        stack.extend(process.instrs[pc].successors(pc))
    return seen
