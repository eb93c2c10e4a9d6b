"""Per-process memory-safety verification (§4.4, §5.3).

ESP makes memory safety a *local* property: channels deliver (semantic)
deep copies, so the objects accessible to different processes never
overlap, and each process can be verified in isolation — which is what
keeps the verifier clear of state explosion ("the SPIN verifier was
able to verify the safety of all processes used to implement the VMMC
firmware fairly easily", §5.3).

:func:`isolate_process` rewrites the program so that a single process
remains and every channel it touches becomes external:

* channels the process **reads** get an always-ready nondeterministic
  environment writer offering every well-typed message over bounded
  domains (filtered to messages that can actually reach the process's
  ports);
* channels the process **writes** get an accept-anything sink reader.

:func:`verify_process` then explores the isolated machine exhaustively
with a bounded object table, which catches use-after-free, double
free, negative counts, and leaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProgramError
from repro.lang import ast
from repro.lang.astclone import clone_tree
from repro.lang.patterns import Eq, EqUnknown, Rec, Shape, Uni, Wild
from repro.lang.program import FrontendResult, frontend, frontend_from_ast
from repro.ir.pipeline import OptLevel, compile_ir
from repro.runtime.machine import Machine
from repro.verify.environment import (
    BudgetChoiceWriter,
    ChoiceWriter,
    SinkReader,
    entry_arg_choices,
    enumerate_values,
)
from repro.verify.explorer import Explorer, ExploreResult

# The most messages an isolated process's environment offers per
# channel (per interface entry on a real external interface).
MAX_MESSAGES_PER_CHANNEL = 16


@dataclass
class MemSafetyReport:
    """Result of verifying one process in isolation."""

    process: str
    result: ExploreResult
    env_channels: list[str] = field(default_factory=list)
    sink_channels: list[str] = field(default_factory=list)
    message_choices: int = 0

    @property
    def ok(self) -> bool:
        return self.result.ok

    def summary(self) -> str:
        return (
            f"memory safety of '{self.process}': {self.result.summary()} "
            f"({self.message_choices} env message choices)"
        )


def isolate_process(front: FrontendResult, process_name: str) -> FrontendResult:
    """Build a new checked program containing only ``process_name``,
    with synthetic external interfaces replacing its peers."""
    checked = front.checked
    target = None
    for p in checked.processes:
        if p.name == process_name:
            target = p
    if target is None:
        raise ProgramError(f"no process named '{process_name}'")

    reads = {c for c, uses in checked.in_uses.items()
             if any(u.process == process_name for u in uses)}
    writes = {c for c, uses in checked.out_uses.items()
              if any(u.process == process_name for u in uses)}

    # The re-check annotates processes and interface patterns in place,
    # and the optimizer rewrites process bodies, so those are cloned;
    # neither writes to a type, constant or channel declaration, so the
    # pruned program shares them with the original.
    decls: list[ast.Decl] = []
    for decl in front.program.decls:
        if isinstance(decl, ast.ProcessDecl):
            if decl.name == process_name:
                decls.append(clone_tree(decl))
            continue
        if isinstance(decl, ast.InterfaceDecl):
            # Keep existing external interfaces on channels the process
            # touches; drop the rest.
            if decl.channel in reads | writes:
                decls.append(clone_tree(decl))
            continue
        decls.append(decl)

    existing_external = {
        d.channel for d in decls if isinstance(d, ast.InterfaceDecl)
    }
    for channel in sorted(reads - existing_external):
        decls.append(_synthetic_interface(front, channel, direction="out"))
    for channel in sorted(writes - existing_external - reads):
        decls.append(_synthetic_interface(front, channel, direction="in"))

    program = ast.Program(front.program.span, decls)
    # Peer processes' patterns are gone, so channel coverage may be
    # partial; the environment only offers messages the remaining
    # ports can match.
    return frontend_from_ast(program, require_exhaustive=False)


def _synthetic_interface(front: FrontendResult, channel: str,
                         direction: str) -> ast.InterfaceDecl:
    span = front.program.span
    binder = ast.PBind(span, name="msg")
    prefix = "Env" if direction == "out" else "Sink"
    entry = ast.InterfaceEntry(span, f"{prefix}_{channel}", binder)
    return ast.InterfaceDecl(
        span, name=f"{prefix.lower()}_{channel}", direction=direction,
        channel=channel, entries=[entry],
    )


def _python_value_matches_shape(shape: Shape, value) -> bool:
    """Would a message with this Python encoding reach some port?"""
    if isinstance(shape, Wild):
        return True
    if isinstance(shape, Eq):
        return shape.value == value
    if isinstance(shape, EqUnknown):
        return True
    if isinstance(shape, Rec):
        if not isinstance(value, tuple) or len(value) != len(shape.items):
            return False
        return all(
            _python_value_matches_shape(item, v)
            for item, v in zip(shape.items, value)
        )
    if isinstance(shape, Uni):
        if not isinstance(value, tuple) or len(value) != 2:
            return False
        tag, inner = value
        return tag == shape.tag and _python_value_matches_shape(shape.value, inner)
    return True


def build_isolated_machine(
    front: FrontendResult,
    process_name: str,
    int_domain: tuple[int, ...] = (0, 1),
    array_sizes: tuple[int, ...] = (1,),
    max_objects: int | None = 24,
    opt_level: OptLevel = OptLevel.FULL,
    env_budget: int | None = None,
    engine: str | None = None,
) -> tuple[Machine, MemSafetyReport]:
    """Isolate, compile, and wire up the environment for one process.

    With ``env_budget`` set, each environment channel delivers at most
    that many messages (bounded verification for processes with
    unbounded counters)."""
    isolated = isolate_process(front, process_name)
    program, _stats = compile_ir(isolated, opt_level)

    externals = {}
    env_channels, sink_channels = [], []
    total_choices = 0
    for channel, info in program.channels.items():
        if info.external == "writer":
            entries = list(info.pattern_names)
            choices: list[tuple[str, tuple]] = []
            if entries and entries[0].startswith("Env_"):
                shapes = [p.shape for p in program.ports.ports.get(channel, [])]
                for value in enumerate_values(
                    info.message_type, int_domain, array_sizes,
                    limit=MAX_MESSAGES_PER_CHANNEL,
                ):
                    if any(_python_value_matches_shape(s, value) for s in shapes):
                        choices.append((entries[0], (value,)))
            else:
                # A real external interface: enumerate binder args per entry.
                for entry_name in entries:
                    pattern = program.interfaces[channel][entry_name]
                    for args in entry_arg_choices(
                        pattern, int_domain, array_sizes,
                        limit=MAX_MESSAGES_PER_CHANNEL,
                    ):
                        choices.append((entry_name, args))
            total_choices += len(choices)
            if env_budget is not None:
                externals[channel] = BudgetChoiceWriter(entries, choices,
                                                        env_budget)
            else:
                externals[channel] = ChoiceWriter(entries, choices)
            env_channels.append(channel)
        elif info.external == "reader":
            externals[channel] = SinkReader(list(info.pattern_names))
            sink_channels.append(channel)

    machine = Machine(program, externals=externals, max_objects=max_objects,
                      engine=engine)
    report = MemSafetyReport(
        process=process_name,
        result=ExploreResult(),
        env_channels=env_channels,
        sink_channels=sink_channels,
        message_choices=total_choices,
    )
    return machine, report


def verify_process(
    source: str | FrontendResult,
    process_name: str,
    int_domain: tuple[int, ...] = (0, 1),
    array_sizes: tuple[int, ...] = (1,),
    max_objects: int | None = 24,
    max_states: int | None = 200_000,
    opt_level: OptLevel = OptLevel.FULL,
    env_budget: int | None = None,
    reduce: str | None = None,
    engine: str | None = None,
) -> MemSafetyReport:
    """Exhaustively verify the memory safety of one process (§5.3);
    pass ``env_budget`` to bound the environment for processes whose
    counters grow without bound.  ``reduce`` selects the reduction
    modes (``"por"``, ``"sym"``, ``"por,sym"``) of
    :mod:`repro.verify.reduction`, and ``engine`` the Python engine the
    search runs on."""
    front = frontend(source) if isinstance(source, str) else source
    machine, report = build_isolated_machine(
        front, process_name, int_domain, array_sizes,
        max_objects=max_objects, opt_level=opt_level, env_budget=env_budget,
        engine=engine,
    )
    report.result = Explorer(
        machine, max_states=max_states, reduce=reduce
    ).explore()
    return report
