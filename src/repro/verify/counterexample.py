"""Counterexample formatting and deterministic replay.

When model checking finds a violation, SPIN "can produce an execution
sequence that causes the violation and thereby helps in finding the
bug" (§5.1).  Our violations carry the move trace from the initial
state; this module renders it for humans, groups multiple violations
for reports, and *replays* traces through a fresh :class:`Machine`.

Replay keeps the explorers' hot path free of string formatting: a
violation is recorded as a compact move-index path, and the full
human-readable trace is rebuilt afterwards by re-executing the path —
sound because processes are deterministic between blocking points, so
the path pins down the entire execution.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ESPError
from repro.verify.properties import Invariant, Violation
from repro.verify.state import is_quiescent


class ReplayError(RuntimeError):
    """A counterexample trace failed to replay (the program or the
    environment changed since the trace was recorded)."""


def format_trace(violation: Violation, heading: str = "counterexample") -> str:
    """A SPIN-style numbered execution sequence ending in the violation."""
    lines = [f"{heading}: {violation.kind} — {violation.message}"]
    for i, step in enumerate(violation.trace, start=1):
        lines.append(f"  step {i:3d}: {step}")
    lines.append(f"  => {violation.message}")
    return "\n".join(lines)


def shortest(violations: list[Violation]) -> Violation | None:
    """The violation with the shortest trace (the most readable one)."""
    if not violations:
        return None
    return min(violations, key=lambda v: len(v.trace))


def group_by_kind(violations: list[Violation]) -> dict[str, list[Violation]]:
    groups: dict[str, list[Violation]] = {}
    for violation in violations:
        groups.setdefault(violation.kind, []).append(violation)
    return groups


def replay_path(machine, path: Sequence[int]) -> tuple[list[str], ESPError | None]:
    """Replay a move-index path from a machine's *initial* (un-run)
    state: settle, then at each step apply the path's move by its
    position in :meth:`Machine.enabled_moves` and settle again.

    Returns the human-readable move descriptions and the interpreter
    exception that ended the replay (None when the whole path applied
    cleanly).  Move enumeration is deterministic, so the same path
    always reproduces the same execution — the explorers rely on this
    to rebuild counterexamples from the paths they record."""
    trace: list[str] = []
    try:
        machine.run_ready()
    except ESPError as err:
        return trace, err
    for step, index in enumerate(path):
        moves = machine.enabled_moves()
        if index >= len(moves):
            raise ReplayError(
                f"step {step + 1}: path wants move {index} but only "
                f"{len(moves)} move(s) are enabled"
            )
        move = moves[index]
        trace.append(move.describe(machine))
        try:
            machine.apply(move)
            machine.run_ready()
        except ESPError as err:
            return trace, err
    return trace, None


def replay_violation(
    machine,
    violation: Violation,
    invariants: list[Invariant] | None = None,
    quiescence_ok: bool = True,
) -> Violation:
    """Re-execute a violation's counterexample trace on a fresh machine
    and return the reproduced :class:`Violation`.

    Each trace step is matched against the descriptions of the enabled
    moves (first match wins — deterministic).  Raises
    :class:`ReplayError` when a step cannot be matched or the trace
    replays without reproducing any violation.  A reproduced violation
    equal to the original is the regression guarantee behind the
    explorers' replay-based reconstruction."""
    from repro.verify.explorer import _violation_from

    try:
        machine.run_ready()
    except ESPError as err:
        return _violation_from(err, [], 0)
    for step, description in enumerate(violation.trace, start=1):
        moves = machine.enabled_moves()
        move = next(
            (m for m in moves if m.describe(machine) == description), None
        )
        if move is None:
            raise ReplayError(
                f"step {step}: no enabled move matches {description!r}"
            )
        try:
            machine.apply(move)
            machine.run_ready()
        except ESPError as err:
            return _violation_from(err, violation.trace[:step], step)
    for invariant in invariants or []:
        message = invariant(machine)
        if message is not None:
            return Violation("invariant", message, list(violation.trace),
                             len(violation.trace))
    if (not machine.enabled_moves() and machine.blocked_processes()
            and not (quiescence_ok and is_quiescent(machine))):
        names = machine.blocked_summary()
        return Violation("deadlock", f"no enabled move; blocked: {names}",
                         list(violation.trace), len(violation.trace))
    raise ReplayError("trace replayed without reproducing a violation")


def replay_on_reference(
    program,
    violation: Violation,
    invariants: list[Invariant] | None = None,
    quiescence_ok: bool = True,
    externals=None,
) -> Violation:
    """Replay a violation on a fresh *reference* machine: the AST
    walker with no reduction.

    This is the soundness oracle for the reduction layer
    (:mod:`repro.verify.reduction`): a counterexample found while
    exploring the reduced state space must describe a real execution
    of the unreduced program, so it must replay — move descriptions
    matched step by step — on the unreduced reference interpreter and
    reproduce a violation of the same kind.  Raises
    :class:`ReplayError` when it does not, which is exactly the
    failure the reduction-differential suite exists to catch."""
    from repro.runtime.machine import Machine
    from repro.verify.environment import default_verification_bridges

    if externals is None:
        externals = default_verification_bridges(program)
    machine = Machine(program, externals=externals, engine="ast")
    return replay_violation(machine, violation, invariants, quiescence_ok)


def report(violations: list[Violation]) -> str:
    """A summary report over all violations found in a run."""
    if not violations:
        return "no violations found"
    lines = [f"{len(violations)} violation(s):"]
    for kind, group in sorted(group_by_kind(violations).items()):
        lines.append(f"  {kind}: {len(group)}")
    best = shortest(violations)
    lines.append("")
    lines.append(format_trace(best, heading="shortest counterexample"))
    return "\n".join(lines)
