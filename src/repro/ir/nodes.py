"""The ESP intermediate representation.

Each process body is lowered to a flat list of instructions with
explicit program counters.  The blocking instructions — ``In``,
``Out``, and ``Alt`` — are exactly the paper's *states*: "each location
in the process where it can block implicitly represents a state in the
state machine" (§4.3).  Everything between two blocking points is
deterministic straight-line/branching code, which is why a context
switch only needs to save the program counter (§6.1) and why the
verifier only interleaves at these points (§5).

Expressions and patterns are reused from the checked AST: they are
atomic with respect to concurrency (processes share no state), so
there is nothing to gain from three-address form, and keeping source
trees makes the Promela and C backends near-pretty-printers.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from repro.lang import ast
from repro.lang.patterns import PatternAnalysis
from repro.lang.source import Span
from repro.lang.types import ChannelInfo, Type


@dataclass
class Instr:
    """Base instruction; ``span`` points back at the source."""

    span: object = None

    def successors(self, pc: int) -> list[int]:
        """Static successor PCs (used by the CFG)."""
        return [pc + 1]

    def is_blocking(self) -> bool:
        return False


@dataclass
class Decl(Instr):
    """Bind a fresh local ``var`` to the value of ``expr``."""

    var: str = ""
    expr: Optional[ast.Expr] = None
    var_type: Optional[Type] = None


@dataclass
class Assign(Instr):
    """Store ``expr`` into an lvalue (variable, array slot, or field)."""

    target: Optional[ast.Expr] = None
    expr: Optional[ast.Expr] = None


@dataclass
class Match(Instr):
    """Destructure ``expr`` with ``pattern`` (local alias semantics)."""

    pattern: Optional[ast.Pattern] = None
    expr: Optional[ast.Expr] = None


@dataclass
class Jump(Instr):
    target: int = -1

    def successors(self, pc: int) -> list[int]:
        return [self.target]


@dataclass
class Branch(Instr):
    """Conditional jump: to ``true_target`` when ``cond`` holds, else
    ``false_target``."""

    cond: Optional[ast.Expr] = None
    true_target: int = -1
    false_target: int = -1

    def successors(self, pc: int) -> list[int]:
        return [self.true_target, self.false_target]


@dataclass
class In(Instr):
    """Blocking receive on ``channel`` with dispatch ``pattern``."""

    channel: str = ""
    pattern: Optional[ast.Pattern] = None
    port_index: int = -1

    def is_blocking(self) -> bool:
        return True


@dataclass
class Out(Instr):
    """Blocking synchronous send of ``expr`` on ``channel``.

    ``fused`` is set by the allocation-avoidance optimization (§6.1)
    when the message record never needs to be allocated because every
    receive site destructures it.
    """

    channel: str = ""
    expr: Optional[ast.Expr] = None
    fused: bool = False

    def is_blocking(self) -> bool:
        return True


@dataclass
class AltArm:
    """One case of an ``Alt``: an optional guard, a channel operation,
    and the PC of the case body.

    ``span`` is the ``case``'s own source region.  The enclosing
    ``Alt`` instruction's span covers the whole statement; arm spans
    are what let diagnostics (deadlock reports, counterexamples) point
    at the specific case a process is blocked on."""

    kind: str = "in"  # "in" | "out"
    channel: str = ""
    guard: Optional[ast.Expr] = None
    pattern: Optional[ast.Pattern] = None  # for "in"
    expr: Optional[ast.Expr] = None  # for "out"
    port_index: int = -1
    body_target: int = -1
    fused: bool = False
    span: Optional[Span] = None


@dataclass
class Alt(Instr):
    """Block until one of the enabled arms can rendezvous (§4.2).

    Guards are evaluated when the process blocks; the out-arm message
    expression is evaluated only when the arm is selected — the
    compiler postpones as much computation as possible until after the
    rendezvous (§6.1).
    """

    arms: list[AltArm] = dc_field(default_factory=list)

    def successors(self, pc: int) -> list[int]:
        return [arm.body_target for arm in self.arms]

    def is_blocking(self) -> bool:
        return True


@dataclass
class Link(Instr):
    expr: Optional[ast.Expr] = None


@dataclass
class Unlink(Instr):
    expr: Optional[ast.Expr] = None


@dataclass
class Assert(Instr):
    cond: Optional[ast.Expr] = None


@dataclass
class Print(Instr):
    args: list[ast.Expr] = dc_field(default_factory=list)


@dataclass
class Nop(Instr):
    pass


@dataclass
class Halt(Instr):
    """End of the process body: the process terminates."""

    def successors(self, pc: int) -> list[int]:
        return []


@dataclass
class IRProcess:
    """A lowered process: a flat instruction list entered at PC 0."""

    name: str
    pid: int
    instrs: list[Instr] = dc_field(default_factory=list)
    locals: dict[str, Type] = dc_field(default_factory=dict)
    # channel -> bit position in this process's wait bitmask (§6.1).
    channel_bits: dict[str, int] = dc_field(default_factory=dict)
    # Preresolved variable slots (repro.ir.slots): unique local name ->
    # dense frame index, plus the name-sorted ``(name, slot)`` iteration
    # order shared by every canonical state encoding.
    slot_of: dict[str, int] = dc_field(default_factory=dict)
    canon_order: tuple = ()
    nslots: int = 0
    slots_resolved: bool = False

    def state_points(self) -> list[int]:
        """PCs of blocking instructions — the state-machine states."""
        return [pc for pc, instr in enumerate(self.instrs) if instr.is_blocking()]

    def wait_mask_for(self, channels: list[str]) -> int:
        mask = 0
        for channel in channels:
            mask |= 1 << self.channel_bits[channel]
        return mask


@dataclass
class IRProgram:
    """The whole lowered program plus frontend symbol tables."""

    processes: list[IRProcess]
    channels: dict[str, ChannelInfo]
    ports: PatternAnalysis
    consts: dict[str, int | bool]
    types: dict[str, Type]
    # channel -> entry name -> interface pattern (external channels only).
    interfaces: dict[str, dict[str, object]] = dc_field(default_factory=dict)

    def process(self, name: str) -> IRProcess:
        for p in self.processes:
            if p.name == name:
                return p
        raise KeyError(name)
