"""Random simulation mode (§5.1).

SPIN's simulation mode explores a single execution sequence, making a
random choice between the possible next states at each stage.  The
paper used it as the primary development vehicle: "parts of the system
were developed and debugged entirely using the SPIN simulator", and
its per-step randomness makes it "more effective in discovering bugs"
than a faithful simulator.  This module reproduces that mode: random
walks over the move graph, with optional restarts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.runtime.machine import Machine
from repro.verify.explorer import step
from repro.verify.properties import Invariant, Violation


@dataclass
class SimulationResult:
    steps: int = 0
    runs: int = 0
    violations: list[Violation] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"{self.runs} run(s), {self.steps} steps, "
            f"{self.elapsed_seconds:.3f}s [{status}]"
        )


class Simulator:
    """Seeded random walks over a machine's move graph."""

    def __init__(
        self,
        machine: Machine,
        invariants: list[Invariant] | None = None,
        seed: int = 0,
        max_steps: int = 10_000,
        runs: int = 1,
    ):
        self.machine = machine
        self.invariants = list(invariants or [])
        self.rng = random.Random(seed)
        self.max_steps = max_steps
        self.runs = runs

    def simulate(self) -> SimulationResult:
        result = SimulationResult()
        started = time.perf_counter()
        initial = None
        for run in range(self.runs):
            result.runs += 1
            if initial is None:
                found = step(self.machine, None, self.invariants)
                if found is not None:
                    result.violations.append(found)
                    break
                initial = self.machine.snapshot()
            else:
                self.machine.restore(initial)
            if self._walk(result):
                break
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _walk(self, result: SimulationResult) -> bool:
        """One random walk; returns True when a violation was found."""
        trace: list[str] = []
        for count in range(1, self.max_steps + 1):
            moves = self.machine.enabled_moves()
            if not moves:
                return False  # quiescent; nothing more can happen
            move = self.rng.choice(moves)
            trace.append(move.describe(self.machine))
            result.steps += 1
            found = step(self.machine, move, self.invariants)
            if found is not None:
                found.trace = trace
                found.depth = count
                result.violations.append(found)
                return True
        return False
