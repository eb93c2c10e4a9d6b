"""Multi-machine verification (§5.2).

"The ability to run multiple copies of a ESP program under SPIN allows
one to mimic a setup where the firmware on multiple machines are
communicating with each other."  This module reproduces that: a
:class:`CoupledSystem` holds several :class:`Machine` instances (same
or different programs) plus :class:`Link`s that carry messages from an
external-reader channel of one machine to an external-writer channel
of another, through a bounded (and optionally lossy) in-flight buffer
that models the wire.

The coupled system exposes the same exploration interface as a single
machine — ``run_ready`` / ``enabled_moves`` / ``apply`` / ``snapshot``
/ ``restore`` / ``canonical_state`` — so :class:`repro.verify.Explorer`
checks the whole multi-node setup exactly as it checks one node.  Its
canonical state is one flat ``(procs, heap, ext)`` state, a single
machine's shape, so the ordinary collapse, plain and bit-state stores
keep it; :meth:`CoupledSystem.canonical_state` is the one place that
knows how the machines are laid out in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ESPRuntimeError
from repro.runtime.external import ExternalReader, ExternalWriter
from repro.runtime.machine import Machine
from repro.verify.state import canonical_state


class _LinkOut(ExternalReader):
    """The sending endpoint: accepts messages out of one machine into
    the link's in-flight buffer."""

    def __init__(self, entries: list[str], link: "Link"):
        super().__init__(entries)
        self.link = link

    def can_accept(self) -> bool:
        return len(self.link.in_flight) < self.link.capacity

    def accept(self, entry_name: str, args: tuple) -> None:
        self.link.in_flight.append((entry_name, args))

    def snapshot(self):
        return None  # the buffer is snapshotted by the link

    def restore(self, state) -> None:
        pass


class _LinkIn(ExternalWriter):
    """The receiving endpoint: offers the buffer head (and, on lossy
    links, the option of dropping it) to the other machine."""

    def __init__(self, entries: list[str], link: "Link"):
        super().__init__(entries)
        self.link = link

    def is_ready(self) -> int:
        if not self.link.in_flight:
            return 0
        entry_name, _ = self.link.in_flight[0]
        mapped = self.link.entry_map.get(entry_name, entry_name)
        return self.entries.index(mapped) + 1

    def offers(self) -> list[tuple[str, tuple]]:
        if not self.link.in_flight:
            return []
        entry_name, args = self.link.in_flight[0]
        return [(self.link.entry_map.get(entry_name, entry_name), args)]

    def take(self, entry_name: str, args=None) -> tuple:
        queued_name, queued_args = self.link.in_flight.pop(0)
        return queued_args

    def snapshot(self):
        return None

    def restore(self, state) -> None:
        pass


@dataclass
class Link:
    """A directed link: machine ``src``'s external-reader channel
    ``out_channel`` feeds machine ``dst``'s external-writer channel
    ``in_channel``.  ``entry_map`` renames interface entries when the
    two programs use different names; ``lossy`` adds a drop move per
    buffered message (the §5.3 lossy-wire environment)."""

    src: int
    out_channel: str
    dst: int
    in_channel: str
    capacity: int = 1
    lossy: bool = False
    entry_map: dict[str, str] = None

    def __post_init__(self):
        if self.entry_map is None:
            self.entry_map = {}
        self.in_flight: list[tuple[str, tuple]] = []


@dataclass(frozen=True)
class _TaggedMove:
    machine_index: int
    move: object

    def describe(self, system: "CoupledSystem") -> str:
        inner = self.move.describe(system.machines[self.machine_index])
        return f"m{self.machine_index}: {inner}"


@dataclass(frozen=True)
class _DropMove:
    link_index: int

    def describe(self, system: "CoupledSystem") -> str:
        link = system.links[self.link_index]
        return (f"wire drop on m{link.src}.{link.out_channel} -> "
                f"m{link.dst}.{link.in_channel}")


class CoupledSystem:
    """Several machines joined by links; Explorer-compatible."""

    def __init__(self, machines: list[Machine], links: list[Link]):
        self.machines = machines
        self.links = links
        for index, link in enumerate(links):
            src_machine = machines[link.src]
            dst_machine = machines[link.dst]
            out_info = src_machine.program.channels.get(link.out_channel)
            in_info = dst_machine.program.channels.get(link.in_channel)
            if out_info is None or out_info.external != "reader":
                raise ESPRuntimeError(
                    f"link {index}: '{link.out_channel}' is not an "
                    "external-reader channel of the source machine"
                )
            if in_info is None or in_info.external != "writer":
                raise ESPRuntimeError(
                    f"link {index}: '{link.in_channel}' is not an "
                    "external-writer channel of the destination machine"
                )
            src_machine.externals[link.out_channel] = _LinkOut(
                list(out_info.pattern_names), link
            )
            dst_machine.externals[link.in_channel] = _LinkIn(
                list(in_info.pattern_names), link
            )

    # -- Explorer interface ------------------------------------------------------

    def run_ready(self) -> int:
        return sum(machine.run_ready() for machine in self.machines)

    def enabled_moves(self) -> list:
        moves: list = []
        for index, machine in enumerate(self.machines):
            for move in machine.enabled_moves():
                moves.append(_TaggedMove(index, move))
        for index, link in enumerate(self.links):
            if link.lossy and link.in_flight:
                moves.append(_DropMove(index))
        return moves

    def apply(self, move) -> None:
        if isinstance(move, _DropMove):
            self.links[move.link_index].in_flight.pop(0)
            return
        self.machines[move.machine_index].apply(move.move)

    def snapshot(self):
        return (
            tuple(machine.snapshot() for machine in self.machines),
            tuple(tuple(link.in_flight) for link in self.links),
        )

    def restore(self, state) -> None:
        machine_states, link_states = state
        for machine, s in zip(self.machines, machine_states):
            machine.restore(s)
        for link, buffered in zip(self.links, link_states):
            link.in_flight = list(buffered)

    def canonical_state(self):
        """A :class:`Machine`'s ``(procs, heap, ext)`` shape, so the
        ordinary visited stores keep coupled states: the machines'
        processes and heap entries in machine order, and in ``ext``
        each machine's heap length and external state, then the link
        buffers.  The heap lengths mark where one machine's entries
        end (two machines can leak the same object), so no two
        coupled states share a key."""
        procs, heap, ext = [], [], []
        for machine in self.machines:
            m_procs, m_heap, m_ext = canonical_state(machine)
            procs.extend(m_procs)
            heap.extend(m_heap)
            ext.append((len(m_heap), m_ext))
        ext.extend(tuple(link.in_flight) for link in self.links)
        return tuple(procs), tuple(heap), tuple(ext)

    def blocked_processes(self):
        blocked = []
        for machine in self.machines:
            blocked.extend(machine.blocked_processes())
        return blocked

    def blocked_summary(self) -> str:
        """Each machine's :meth:`Machine.blocked_summary`, tagged with
        its index the way moves are (``m0: relay at <esp>:8:9``)."""
        parts = []
        for index, machine in enumerate(self.machines):
            summary = machine.blocked_summary()
            if summary:
                parts.append(f"m{index}: {summary}")
        return ", ".join(parts)

    def all_done(self) -> bool:
        return all(machine.all_done() for machine in self.machines)

    @property
    def processes(self):
        return [ps for machine in self.machines for ps in machine.processes]
