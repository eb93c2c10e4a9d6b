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

from repro.verify.properties import Invariant, Violation


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


def replay_path(machine, path: Sequence[int]) -> tuple[list[str], Violation | None]:
    """Replay a move-index path from a machine's *initial* (un-run)
    state: settle, then at each step apply the path's move by its
    position in :meth:`Machine.enabled_moves` and settle again.

    Returns the human-readable move descriptions and the violation that
    ended the replay (None when the whole path applied cleanly).  Move
    enumeration is deterministic, so the same path always reproduces
    the same execution — the explorers rely on this to rebuild
    counterexamples from the paths they record."""
    from repro.verify.explorer import step

    trace: list[str] = []
    found = step(machine, None, ())
    for number, index in enumerate(path, start=1):
        if found is not None:
            break
        moves = machine.enabled_moves()
        if index >= len(moves):
            raise ReplayError(
                f"step {number}: path wants move {index} but only "
                f"{len(moves)} move(s) are enabled"
            )
        move = moves[index]
        trace.append(move.describe(machine))
        found = step(machine, move, ())
    return trace, found


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
    from repro.verify.explorer import deadlock, step

    invariants = invariants or []
    found = step(machine, None, invariants)
    depth = 0
    for description in violation.trace:
        if found is not None:
            break
        moves = machine.enabled_moves()
        move = next(
            (m for m in moves if m.describe(machine) == description), None
        )
        if move is None:
            raise ReplayError(
                f"step {depth + 1}: no enabled move matches {description!r}"
            )
        found = step(machine, move, invariants)
        depth += 1
    if found is None and not machine.enabled_moves():
        found = deadlock(machine, quiescence_ok)
    if found is None:
        raise ReplayError("trace replayed without reproducing a violation")
    found.trace = list(violation.trace[:depth])
    found.depth = depth
    return found


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
