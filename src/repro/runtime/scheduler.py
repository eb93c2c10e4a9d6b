"""The execution scheduler (§6.1).

The generated firmware's structure, reproduced in Python: an idle loop
polls external channels; when a message is available and a process is
waiting, the process is restarted by jumping to its saved location (we
restore a PC — processes need no stack).  Under the default compiled
engine that jump is an index into the process's dispatch table of
closure handlers, so a context switch costs one integer store and one
table lookup, mirroring the ``goto``-threaded C the paper's backend
emits (see docs/ENGINE.md).  Processes execute
non-preemptively until they block; when a blocked pair can rendezvous,
one is picked (the channel-selection policy need not be fair but must
prevent starvation) and the transfer completes.

Policies:

* ``"stack"`` — the paper's simple stack-based policy: prefer the most
  recently enabled move (LIFO-ish, cheap, the default);
* ``"fifo"`` — oldest first (round-robin-ish, starvation-free);
* ``"random"`` — seeded random choice, the paper's "picks one
  randomly" message-transfer behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.runtime.machine import Machine, Move, Rendezvous


@dataclass
class RunResult:
    """Why :meth:`Scheduler.run` returned, plus progress counts."""

    reason: str  # "idle" | "done" | "limit"
    transfers: int
    instructions: int


class Scheduler:
    """Drives a :class:`Machine` with a move-selection policy."""

    # Channel selection "need not be fair ... but must prevent
    # starvation" (§4.2).  Every AGING_PERIOD-th pick falls back to the
    # oldest enabled move, so no enabled synchronisation waits forever.
    AGING_PERIOD = 8

    def __init__(self, machine: Machine, policy: str = "stack", seed: int = 0):
        if policy not in ("stack", "fifo", "random"):
            raise ValueError(f"unknown scheduling policy {policy!r}")
        self.machine = machine
        self.policy = policy
        self.rng = random.Random(seed)
        self._picks = 0

    def pick(self, moves: list[Move]) -> Move:
        """The move the policy takes from ``enabled_moves()``."""
        # The firmware completes internal rendezvous before polling the
        # external channels (the idle loop comes last, §6.1) — so the
        # generated C and this scheduler order work the same way.
        internal = [m for m in moves if type(m) is Rendezvous]
        return self._choose(internal or moves)

    def _choose(self, pool: list[Move]) -> Move:
        self._picks += 1
        if self.policy == "stack":
            if self._picks % self.AGING_PERIOD == 0:
                return pool[0]  # anti-starvation aging
            return pool[-1]
        if self.policy == "fifo":
            return pool[0]
        return self.rng.choice(pool)

    def run(self, max_transfers: int | None = None) -> RunResult:
        """Run until idle (no enabled move), all processes done, or the
        transfer budget is exhausted.

        "Idle" means every process is blocked and no internal or
        external synchronisation is currently possible — the firmware's
        idle loop would now spin polling the external channels.  The
        caller (a test, a workload driver, or the NIC simulator)
        typically feeds more external input and calls ``run`` again.

        Each step applies :meth:`pick` of ``enabled_moves()``, but
        builds the deliveries half of that list only when the first
        half holds no rendezvous: :meth:`pick` would discard them, so
        the external writers are polled only when the firmware's idle
        loop would poll them.
        """
        machine = self.machine
        counters = machine.counters
        start_transfers = counters.transfers
        start_instructions = counters.instructions
        while True:
            machine.run_ready()
            if machine.all_done():
                return RunResult(
                    "done",
                    counters.transfers - start_transfers,
                    counters.instructions - start_instructions,
                )
            moves = machine.send_moves()
            internal = [m for m in moves if type(m) is Rendezvous]
            if not internal:
                machine.add_deliveries(moves)
            counters.idle_polls += 1
            if not moves:
                return RunResult(
                    "idle",
                    counters.transfers - start_transfers,
                    counters.instructions - start_instructions,
                )
            if (
                max_transfers is not None
                and counters.transfers - start_transfers >= max_transfers
            ):
                return RunResult(
                    "limit",
                    counters.transfers - start_transfers,
                    counters.instructions - start_instructions,
                )
            machine.apply(self._choose(internal or moves))


def create_scheduler(machine, policy: str = "stack", seed: int = 0):
    """Scheduler factory matching :func:`create_machine`: a
    :class:`NativeMachine` gets the quantum-batched
    :class:`repro.runtime.native.NativeScheduler`, everything else the
    per-move :class:`Scheduler` — both with identical pick policies."""
    if getattr(machine, "is_native", False):
        from repro.runtime.native import NativeScheduler

        return NativeScheduler(machine, policy=policy, seed=seed)
    return Scheduler(machine, policy=policy, seed=seed)

