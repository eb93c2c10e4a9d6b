"""The optimization pipeline driver.

Mirrors §6.1: the compiler performs the traditional optimizations —
constant folding, copy propagation, dead-code elimination — *on each
process separately*, before the processes are combined, plus the
ESP-specific allocation optimizations.  ``OptLevel.NONE`` exists for
the ablation benchmark (bench_compiler).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir import nodes as ir
from repro.ir.allocopt import optimize_allocations
from repro.ir.copyprop import CopyPropagator
from repro.ir.crossproc import apply_cross_process_constants
from repro.ir.dce import compact_nops, eliminate_dead_code
from repro.ir.fold import fold_process
from repro.ir.lower import lower
from repro.ir.slots import resolve_slots
from repro.lang.program import FrontendResult

_MAX_PASSES = 10


class OptLevel(enum.Enum):
    NONE = 0
    FULL = 1


@dataclass
class OptStats:
    """Counts of rewrites performed, per optimization."""

    folds: int = 0
    copies_propagated: int = 0
    dead_removed: int = 0
    outs_fused: int = 0
    casts_elided: int = 0
    crossproc_binders: int = 0
    per_process_instrs: dict[str, tuple[int, int]] = field(default_factory=dict)

    def total(self) -> int:
        return (
            self.folds
            + self.copies_propagated
            + self.dead_removed
            + self.outs_fused
            + self.casts_elided
            + self.crossproc_binders
        )


def optimize(program: ir.IRProgram, level: OptLevel = OptLevel.FULL) -> OptStats:
    """Optimize ``program`` in place; returns rewrite statistics."""
    stats = OptStats()
    if level is OptLevel.NONE:
        return stats
    before = {process.name: len(process.instrs)
              for process in program.processes}
    # Processes the per-process passes have not brought to a fixpoint.
    unsettled = {process.name for process in program.processes
                 if not _simplify(process, stats)}
    # Cross-process constant propagation (the paper's §6.2 future work);
    # iterate so constants chain through pipelines of channels, then let
    # the per-process passes clean up what it exposed in the processes
    # it rewrote (the others are still at their fixpoint).
    previous = -1
    for _ in range(4):
        cross = apply_cross_process_constants(program)
        stats.crossproc_binders = cross.binders_propagated
        unsettled.update(name for name, facts in cross.facts.items() if facts)
        if cross.binders_propagated == previous:
            break
        previous = cross.binders_propagated
    if stats.crossproc_binders:
        for process in program.processes:
            if process.name in unsettled:
                _simplify(process, stats)
    stats.per_process_instrs = {
        process.name: (before[process.name], len(process.instrs))
        for process in program.processes
    }
    alloc = optimize_allocations(program)
    stats.outs_fused = alloc.outs_fused
    stats.casts_elided = alloc.casts_elided
    return stats


def _simplify(process: ir.IRProcess, stats: OptStats) -> bool:
    """Fold, propagate copies and remove dead code in ``process`` until
    a pass changes nothing (at most ``_MAX_PASSES`` passes); returns
    whether it got there."""
    for _ in range(_MAX_PASSES):
        changed = 0
        changed += _add(stats, "folds", fold_process(process))
        copies = CopyPropagator()
        changed += _add(stats, "copies_propagated", copies.run(process))
        changed += _add(stats, "dead_removed",
                        eliminate_dead_code(process, copies.defs_uses))
        compact_nops(process)
        if changed == 0:
            return True
    return False


def _add(stats: OptStats, attr: str, amount: int) -> int:
    setattr(stats, attr, getattr(stats, attr) + amount)
    return amount


def compile_ir(front: FrontendResult, level: OptLevel = OptLevel.FULL):
    """Lower and optimize in one call; returns (IRProgram, OptStats)."""
    program = lower(front)
    stats = optimize(program, level)
    # Slot resolution must see the final instruction lists (copy
    # propagation and cross-process constants rewrite variable reads).
    resolve_slots(program)
    return program, stats
