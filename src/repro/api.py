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


def verify_source(
    text: str,
    filename: str = "<esp>",
    max_states: int | None = 200_000,
    max_depth: int | None = None,
    quiescence_ok: bool = True,
    int_domain: tuple[int, ...] = (0, 1),
    opt_level: OptLevel = OptLevel.FULL,
    invariants=None,
):
    """Compile and model-check a whole program in one call.

    External channels get default verification environments (an
    always-ready ``ChoiceWriter`` enumerating each interface entry over
    ``int_domain`` for writers, a ``SinkReader`` for readers), so
    programs with external interfaces verify without a hand-written
    harness.  The program is explored by the depth-first
    :class:`~repro.verify.explorer.Explorer`; returns its
    :class:`~repro.verify.explorer.ExploreResult`."""
    from repro.runtime.machine import Machine
    from repro.verify.environment import default_verification_bridges
    from repro.verify.explorer import Explorer

    program = compile_source(text, filename, opt_level)
    machine = Machine(
        program,
        externals=default_verification_bridges(program, int_domain=int_domain),
    )
    return Explorer(
        machine, invariants=invariants, max_states=max_states,
        max_depth=max_depth, quiescence_ok=quiescence_ok,
    ).explore()
