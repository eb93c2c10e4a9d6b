"""The top-level public API of the ESP reproduction.

Typical use::

    from repro import compile_source, Machine, Scheduler, QueueWriter

    program = compile_source(ESP_TEXT)
    machine = Machine(program, externals={"userReqC": my_writer})
    Scheduler(machine).run()

See ``examples/quickstart.py`` for a complete walk-through.
"""

from __future__ import annotations

from repro.ir.nodes import IRProgram
from repro.ir.pipeline import OptLevel, OptStats, compile_ir
from repro.lang.program import FrontendResult, frontend


def compile_source(
    text: str,
    filename: str = "<esp>",
    opt_level: OptLevel = OptLevel.FULL,
) -> IRProgram:
    """Compile ESP source text to an executable/verifiable program."""
    front = frontend(text, filename)
    program, _stats = compile_ir(front, opt_level)
    return program


def compile_source_with_stats(
    text: str,
    filename: str = "<esp>",
    opt_level: OptLevel = OptLevel.FULL,
) -> tuple[IRProgram, OptStats, FrontendResult]:
    """Like :func:`compile_source` but also returns optimizer statistics
    and the frontend result (for tools and benchmarks)."""
    front = frontend(text, filename)
    program, stats = compile_ir(front, opt_level)
    return program, stats, front

