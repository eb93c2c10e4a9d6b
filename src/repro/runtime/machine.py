"""The ESP machine: program + heap + processes + external bridges.

A :class:`Machine` holds everything needed to execute an ESP program
and exposes the rendezvous mechanics as *moves*:

* :meth:`enabled_moves` enumerates every currently possible
  synchronisation (internal rendezvous, external delivery, external
  accept) — this is the machine's entire nondeterminism, since
  processes are deterministic between blocking points.  It is the
  concatenation of two halves, :meth:`send_moves` (rendezvous and
  accepts) and :meth:`add_deliveries` (external deliveries), so that
  the scheduler can poll the external writers only when no rendezvous
  is enabled;
* :meth:`apply` performs one move;
* :meth:`run_ready` runs all runnable processes to their next block.

The execution scheduler (:mod:`repro.runtime.scheduler`) picks moves
with a policy; the verifier (:mod:`repro.verify`) branches over all of
them, using :meth:`snapshot`/:meth:`restore`.

Blocked processes are kept in a per-channel *wait index* (the Python
counterpart of the generated C's ``wait_mask`` bits, §6.1).  A process
that resumes, runs or is restored is marked stale, and
:meth:`enabled_moves` re-indexes only the stale ones, so enumerating
moves costs what changed since the last enumeration plus the channels
that have waiters, not every process and arm.
Pattern work goes through the engine's *boundary*
(:class:`repro.runtime.compile.CompiledBoundary` or the AST walker's
:class:`repro.runtime.interp.ReferenceBoundary`).
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter

from repro.errors import ESPRuntimeError
from repro.lang import ast
from repro.lang.types import ArrayType, RecordType, Type, UnionType
from repro.ir import nodes as ir
from repro.runtime.compile import CompiledBoundary, run_until_block_compiled
from repro.runtime.external import ExternalReader, ExternalWriter
from repro.runtime.heap import Heap
from repro.runtime.interp import (
    BlockInfo,
    Evaluator,
    InterpCounters,
    ProcessState,
    ReferenceBoundary,
    Status,
    build_value,
    run_until_block,
)
from repro.runtime.values import Ref, Value


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


class _Move:
    """Plain slot record: equality, hashing and repr by field."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._fields() == self._fields()

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Rendezvous(_Move):
    """An internal channel synchronisation between two processes.

    Arm indexes are None for plain in/out, or the alt-arm index."""

    __slots__ = ("channel", "sender_pid", "sender_arm", "receiver_pid",
                 "receiver_arm")

    def __init__(self, channel: str, sender_pid: int, sender_arm: int | None,
                 receiver_pid: int, receiver_arm: int | None):
        self.channel = channel
        self.sender_pid = sender_pid
        self.sender_arm = sender_arm
        self.receiver_pid = receiver_pid
        self.receiver_arm = receiver_arm

    def describe(self, machine: "Machine") -> str:
        s = machine.processes[self.sender_pid].proc.name
        r = machine.processes[self.receiver_pid].proc.name
        return f"{s} -> {r} on {self.channel}"


class ExternalDeliver(_Move):
    """The external writer of ``channel`` sends one message into ESP.

    ``args`` is empty when the writer could not preview them (its
    ``offers()`` said None); the move then takes them from ``take()``."""

    __slots__ = ("channel", "entry_name", "args", "receiver_pid",
                 "receiver_arm")

    def __init__(self, channel: str, entry_name: str, args: tuple,
                 receiver_pid: int, receiver_arm: int | None):
        self.channel = channel
        self.entry_name = entry_name
        self.args = args
        self.receiver_pid = receiver_pid
        self.receiver_arm = receiver_arm

    def describe(self, machine: "Machine") -> str:
        r = machine.processes[self.receiver_pid].proc.name
        return f"external {self.entry_name}{self.args} -> {r} on {self.channel}"


class ExternalAccept(_Move):
    """The external reader of ``channel`` accepts one ESP message."""

    __slots__ = ("channel", "sender_pid", "sender_arm")

    def __init__(self, channel: str, sender_pid: int, sender_arm: int | None):
        self.channel = channel
        self.sender_pid = sender_pid
        self.sender_arm = sender_arm

    def describe(self, machine: "Machine") -> str:
        s = machine.processes[self.sender_pid].proc.name
        return f"{s} -> external on {self.channel}"


Move = Rendezvous | ExternalDeliver | ExternalAccept


# ---------------------------------------------------------------------------
# The wait index
# ---------------------------------------------------------------------------


class _Wait:
    """One (process, arm) blocked on a channel: an entry of the wait
    index.  ``key`` orders a channel's waiters the way a scan in pid
    order, then arm order, meets them.  A send has no ``pattern``; a
    receive carries its pattern and the engine's matchers for it, and
    fills in ``reach``/``shape`` per interface entry on first use."""

    __slots__ = ("key", "pid", "arm", "ps", "channel", "pattern", "test",
                 "test_components", "reach", "shape")

    def __init__(self, ps: ProcessState, arm: int | None, channel: str,
                 pattern: ast.Pattern | None = None):
        self.key = (ps.pid << 16) | (0 if arm is None else arm + 1)
        self.pid = ps.pid
        self.arm = arm
        self.ps = ps
        self.channel = channel
        self.pattern = pattern

    def __lt__(self, other: "_Wait") -> bool:
        return self.key < other.key


def _head_key(waits: list[_Wait]) -> int:
    return waits[0].key


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


class SnapshotCounters:
    """Copy-on-write hit rates of the snapshot/restore hot path
    (`espc verify --stats`)."""

    __slots__ = ("proc_records_built", "proc_records_reused",
                 "proc_restores", "proc_restores_skipped",
                 "restore_sync_hits")

    def __init__(self):
        self.proc_records_built = 0
        self.proc_records_reused = 0
        self.proc_restores = 0
        self.proc_restores_skipped = 0
        self.restore_sync_hits = 0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


_pid_of = attrgetter("pid")
_arm_index = attrgetter("index")


_STATELESS_SNAPSHOTS = (ExternalWriter.snapshot, ExternalReader.snapshot)


def _stateful_bridges(externals: dict) -> tuple:
    """``(name, bridge)`` of every bridge whose class overrides
    ``snapshot()``, in name order: the base ``snapshot()`` returns None
    and the base ``restore()`` does nothing, so the other bridges need
    no snapshotting, restoring or keying."""
    return tuple(sorted(
        [(name, bridge) for name, bridge in externals.items()
         if type(bridge).snapshot not in _STATELESS_SNAPSHOTS],
        key=lambda item: item[0],
    ))


class _OutChecks(dict):
    """``pc -> check`` for one process: the §4.2 check of its ``out``
    at ``pc``, asked of the boundary at the site's first send.  None
    where the boundary discharged it (:meth:`CompiledBoundary.out_check`
    proves the sites it can; :class:`ReferenceBoundary` checks every
    site)."""

    __slots__ = ("boundary", "instrs")

    def __init__(self, boundary, proc: ir.IRProcess):
        super().__init__()
        self.boundary = boundary
        self.instrs = proc.instrs

    def __missing__(self, pc: int):
        check = self[pc] = self.boundary.out_check(self.instrs[pc])
        return check


#: Execution engines this class implements in Python: the
#: closure-compiled handler tables (default,
#: :mod:`repro.runtime.compile`) and the AST-walking reference oracle
#: (:mod:`repro.runtime.interp`).
ENGINES = ("compiled", "ast")

#: Every selectable engine, including the shared-object native engine
#: (:mod:`repro.runtime.native`), which :func:`create_machine`
#: dispatches to a different machine class.
ALL_ENGINES = ("compiled", "ast", "native")


#: The engine a machine runs on when its caller names none: a Python
#: engine, so a missing C compiler only surfaces on an explicit
#: request.
DEFAULT_ENGINE = "compiled"


def create_machine(
    program: ir.IRProgram,
    externals=None,
    max_objects: int | None = None,
    print_handler=None,
    engine: str | None = None,
):
    """Engine-dispatching machine factory: ``compiled``/``ast`` build a
    :class:`Machine`, ``native`` builds a
    :class:`repro.runtime.native.NativeMachine` (compiling the
    generated C on first use — imported lazily so the Python engines
    never touch the toolchain).  ``engine=None`` means
    :data:`DEFAULT_ENGINE`."""
    if engine is None:
        engine = DEFAULT_ENGINE
    if engine == "native":
        from repro.runtime.native import NativeMachine

        return NativeMachine(program, externals=externals,
                             max_objects=max_objects,
                             print_handler=print_handler)
    return Machine(program, externals=externals, max_objects=max_objects,
                   print_handler=print_handler, engine=engine)


class Machine:
    """One instantiated ESP program (see module docstring)."""

    def __init__(
        self,
        program: ir.IRProgram,
        externals: dict[str, ExternalWriter | ExternalReader] | None = None,
        max_objects: int | None = None,
        print_handler=None,
        engine: str | None = None,
    ):
        self.program = program
        self.externals = dict(externals or {})
        self.max_objects = max_objects
        self.print_handler = print_handler
        if engine is None:
            engine = DEFAULT_ENGINE
        if engine == "native":
            raise ValueError(
                "the native engine runs through a different machine class; "
                "construct it with repro.runtime.machine.create_machine "
                "(or the --engine flag), not Machine(engine='native')"
            )
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ALL_ENGINES}"
            )
        self.engine = engine
        if self.engine == "ast":
            self._stepper = run_until_block
            self._boundary = ReferenceBoundary(program)
        else:
            self._stepper = run_until_block_compiled
            self._boundary = CompiledBoundary(program)
        self._out_checks = [_OutChecks(self._boundary, proc)
                            for proc in program.processes]
        channels = program.channels
        self._readers = frozenset(c for c, info in channels.items()
                                  if info.external == "reader")
        self._writers = frozenset(c for c, info in channels.items()
                                  if info.external == "writer")
        self._externals_validated = False
        self.stateful_bridges = _stateful_bridges(self.externals)
        self.reset()

    def _validate_externals(self) -> None:
        """Check every external channel has a matching bridge, and list
        the bridges with state again.  Runs lazily at first execution
        so that couplers (e.g. :class:`repro.verify.coupled.CoupledSystem`)
        can install link endpoints after construction."""
        if self._externals_validated:
            return
        self._externals_validated = True
        self.stateful_bridges = _stateful_bridges(self.externals)
        for channel, info in self.program.channels.items():
            bridge = self.externals.get(channel)
            if info.external == "writer" and not isinstance(bridge, ExternalWriter):
                raise ESPRuntimeError(
                    f"channel '{channel}' needs an ExternalWriter bridge"
                )
            if info.external == "reader" and not isinstance(bridge, ExternalReader):
                raise ESPRuntimeError(
                    f"channel '{channel}' needs an ExternalReader bridge"
                )

    def reset(self) -> None:
        self.heap = Heap(max_objects=self.max_objects)
        self.evaluator = Evaluator(self.heap, self.program.consts)
        self.counters = InterpCounters()
        self.snap_counters = SnapshotCounters()
        self.processes = [ProcessState(p) for p in self.program.processes]
        self._env_ps = ProcessState(
            ir.IRProcess(name="<external>", pid=-1)
        )
        self.prints: list[tuple[str, list]] = []
        # Processes mutated since `_sync_state` (the last state passed to
        # :meth:`restore`) — the verifier's restore-to-where-I-just-was
        # fast path undoes exactly these instead of walking every process.
        self._dirty_procs: set[ProcessState] = set()
        self._sync_state = None
        self._ready: set[ProcessState] = set(self.processes)
        self._ndone = 0
        # The wait index: per channel, its blocked senders and receivers
        # in key order; per process, the waits it is indexed under and
        # a cache of the waits of every blocking point it has reached.
        # Processes that resumed, ran or were restored since the last
        # enumeration are ``_stale``.
        self._stale: set[ProcessState] = set(self.processes)
        self._senders: dict[str, list[_Wait]] = {}
        self._receivers: dict[str, list[_Wait]] = {}
        self._waits: list[tuple[_Wait, ...]] = [()] * len(self.processes)
        self._wait_sets: list[dict] = [{} for _ in self.processes]
        self._deliver_order: list[list[_Wait]] | None = None

    # -- printing ---------------------------------------------------------------

    def on_print(self, ps: ProcessState, values: list) -> None:
        self.prints.append((ps.proc.name, values))
        if self.print_handler is not None:
            self.print_handler(ps.proc.name, values)

    # -- running ------------------------------------------------------------------

    def run_ready(self) -> int:
        """Run every READY process to its next block; returns how many ran.

        The READY set is maintained at the status-transition sites
        (reset, :meth:`_resume`, restore), so settling after a
        move costs O(processes that can run), not O(all processes).
        Running a process never makes another READY (resumption only
        happens through :meth:`apply`), so one pass in pid order is
        exactly the historical full scan."""
        if not self._externals_validated:
            self._validate_externals()
        ready = self._ready
        if not ready:
            return 0
        ran = 0
        stepper = self._stepper
        counters = self.counters
        stale = self._stale
        out_checks = self._out_checks
        for ps in (sorted(ready, key=_pid_of) if len(ready) > 1 else list(ready)):
            ready.discard(ps)
            stale.add(ps)
            counters.context_switches += 1
            stepper(self, ps)
            if ps.status is Status.DONE:
                self._ndone += 1
            elif ps.block.kind == "out":
                # Dynamic exhaustiveness (§4.2): a message must match
                # exactly one pattern; flag eagerly when it can match
                # none.
                check = out_checks[ps.pid][ps.pc]
                if check is not None and not check(self, ps.block):
                    raise ESPRuntimeError(
                        f"message sent by '{ps.proc.name}' on channel "
                        f"'{ps.block.channel}' matches no receive pattern",
                    )
            ran += 1
        return ran

    # -- the wait index --------------------------------------------------------------

    def _index(self, ps: ProcessState) -> None:
        """Bring the wait index up to date with a stale ``ps``.  Waits
        are built once per blocking point (the pc, plus the enabled arms
        of an ``alt``), so a process found blocked where it was indexed
        last time leaves the index, and the cached delivery order,
        untouched."""
        pid = ps.pid
        old = self._waits[pid]
        if ps.status is Status.BLOCKED:
            block = ps.block
            point = (ps.pc if block.kind != "alt"
                     else (ps.pc, *map(_arm_index, block.arms)))
            points = self._wait_sets[pid]
            new = points.get(point)
            if new is None:
                new = points[point] = self._make_waits(ps, block)
        else:
            new = ()
        if new is old:
            return
        self._waits[pid] = new
        # The cached delivery order goes stale only when one of its
        # writer channels appears, empties or changes its first waiter.
        senders, receivers = self._senders, self._receivers
        for w in old:
            index = senders if w.pattern is None else receivers
            waits = index[w.channel]
            if len(waits) == 1:
                del index[w.channel]
            elif waits[0] is not w:
                waits.remove(w)
                continue
            else:
                del waits[0]
            if index is receivers and w.channel in self._writers:
                self._deliver_order = None
        for w in new:
            index = senders if w.pattern is None else receivers
            waits = index.get(w.channel)
            if waits is None:
                index[w.channel] = [w]
            else:
                insort(waits, w)
                if waits[0] is not w:
                    continue
            if index is receivers and w.channel in self._writers:
                self._deliver_order = None

    def _make_waits(self, ps: ProcessState, block: BlockInfo) -> tuple:
        if block.kind == "out":
            return (_Wait(ps, None, block.channel),)
        if block.kind == "in":
            return (self._receive_wait(ps, None, block.channel, block.pattern),)
        return tuple(
            self._receive_wait(ps, e.index, e.arm.channel, e.arm.pattern)
            if e.arm.kind == "in" else _Wait(ps, e.index, e.arm.channel)
            for e in block.arms
        )

    def _receive_wait(self, ps: ProcessState, arm: int | None, channel: str,
                      pattern: ast.Pattern) -> _Wait:
        w = _Wait(ps, arm, channel, pattern)
        w.test = self._boundary.test(pattern, ps.proc)
        w.test_components = self._boundary.test_components(pattern, ps.proc)
        w.reach = {}
        w.shape = {}
        return w

    # -- move enumeration ------------------------------------------------------------

    def enabled_moves(self) -> list[Move]:
        """Every synchronisation currently possible (the machine's full
        nondeterminism), in a fixed order that schedulers and
        counterexample paths index into: :meth:`send_moves`, then the
        deliveries :meth:`add_deliveries` appends."""
        moves = self.send_moves()
        self.add_deliveries(moves)
        return moves

    def send_moves(self) -> list[Move]:
        """The first half of :meth:`enabled_moves`: channels with
        blocked senders, ordered by their first sender in (pid, arm)
        order.  An external-reader channel yields one accept per sender
        (if its bridge can accept), an internal channel every matching
        (sender, receiver) pair, senders outer, both in (pid, arm)
        order.  Brings the wait index up to date first."""
        stale = self._stale
        if stale:
            index = self._index
            for ps in stale:
                index(ps)
            stale.clear()
        moves: list[Move] = []
        if not self._senders:
            return moves
        externals = self.externals
        receivers = self._receivers
        counters = self.counters
        readers = self._readers
        for sends in sorted(self._senders.values(), key=_head_key):
            channel = sends[0].channel
            if channel in readers:
                if externals[channel].can_accept():
                    for s in sends:
                        moves.append(ExternalAccept(channel, s.pid, s.arm))
                continue
            recvs = receivers.get(channel)
            if recvs is None:
                continue
            for s in sends:
                s_pid, s_arm = s.pid, s.arm
                if s_arm is not None:
                    # Postponed alt-out payload (§6.1): pair on channel
                    # availability.
                    for r in recvs:
                        if r.pid != s_pid:
                            moves.append(Rendezvous(channel, s_pid, s_arm,
                                                    r.pid, r.arm))
                    continue
                block = s.ps.block
                values, fused = block.values, block.fused
                for r in recvs:
                    if r.pid == s_pid:
                        continue
                    counters.matches += 1
                    if (r.test_components(self, r.ps, values) if fused
                            else r.test(self, r.ps, values[0])):
                        moves.append(Rendezvous(channel, s_pid, None,
                                                r.pid, r.arm))
        return moves

    def add_deliveries(self, moves: list[Move]) -> None:
        """The second half of :meth:`enabled_moves`, appended to the
        first: external-writer channels with blocked receivers, ordered
        by their first receiver, one delivery per offer and reachable
        receiver, offers outer.  Polls each such writer's ``offers()``;
        call it only after :meth:`send_moves`, which re-indexes."""
        receivers = self._receivers
        if not receivers:
            return
        order = self._deliver_order
        if order is None:
            writers = self._writers
            order = self._deliver_order = sorted(
                [waits for channel, waits in receivers.items()
                 if channel in writers],
                key=_head_key,
            )
        externals = self.externals
        for recvs in order:
            channel = recvs[0].channel
            offers = externals[channel].offers()
            if offers:
                self._deliveries(channel, recvs, offers, moves)

    def _deliveries(self, channel: str, recvs: list[_Wait], offers,
                    moves: list[Move]) -> None:
        """Append the deliveries of an external writer's offers.  Args
        None: the writer cannot preview them, so the entry is offered
        on its shape to every receiver whose pattern it could match, and
        the values are checked when ``take()`` supplies them.  A tuple
        must cover every binder and convert to its type (else the offer
        is undeliverable) and is matched against each receiver."""
        entries = self.program.interfaces[channel]
        for entry_name, args in offers:
            entry = entries[entry_name]
            if args is None:
                for r in recvs:
                    fits = r.shape.get(entry_name)
                    if fits is None:
                        fits = r.shape[entry_name] = _patterns_compatible(
                            entry, r.pattern)
                    if fits:
                        moves.append(ExternalDeliver(channel, entry_name, (),
                                                     r.pid, r.arm))
                continue
            if not _admits(entry, args):
                continue
            for r in recvs:
                reach = r.reach.get(entry_name)
                if reach is None:
                    reach = r.reach[entry_name] = self._boundary.reach(
                        entry_name, entry, r.pattern, r.ps.proc)
                if reach(self, r.ps, args):
                    moves.append(ExternalDeliver(channel, entry_name, args,
                                                 r.pid, r.arm))

    def _receiver_pattern(self, receiver: ProcessState,
                          r_arm: int | None) -> ast.Pattern:
        if r_arm is None:
            return receiver.block.pattern
        return receiver.proc.instrs[receiver.pc].arms[r_arm].pattern

    # -- applying moves ------------------------------------------------------------

    def apply(self, move: Move) -> None:
        kind = type(move)
        if kind is Rendezvous:
            self._apply_rendezvous(move)
        elif kind is ExternalDeliver:
            self._apply_external_deliver(move)
        elif kind is ExternalAccept:
            self._apply_external_accept(move)
        else:
            raise ESPRuntimeError(f"unknown move {move!r}")
        self.counters.transfers += 1

    def _apply_rendezvous(self, move: Rendezvous) -> None:
        sender = self.processes[move.sender_pid]
        receiver = self.processes[move.receiver_pid]
        values, fresh, fused = self._take_sender_payload(sender, move.sender_arm)
        pattern = self._receiver_pattern(receiver, move.receiver_arm)
        if fused:
            test = self._boundary.test_components(pattern, receiver.proc)
            ok = test(self, receiver, values)
        else:
            ok = self._boundary.test(pattern, receiver.proc)(
                self, receiver, values[0])
        if not ok:
            raise ESPRuntimeError(
                f"message from '{sender.proc.name}' does not match the waiting "
                f"pattern of '{receiver.proc.name}' on '{move.channel}'"
            )
        self._deliver(receiver, pattern, values, fresh, fused)
        self._resume(sender, move.sender_arm)
        self._resume(receiver, move.receiver_arm)

    def _take_sender_payload(self, sender: ProcessState, s_arm: int | None):
        """(values, fresh, fused) of a sender's message; an alt out-arm
        evaluates its payload only now (postponed, §6.1)."""
        if s_arm is None:
            block = sender.block
            return block.values, block.fresh, block.fused
        arm = sender.proc.instrs[sender.pc].arms[s_arm]
        return self._boundary.payload(arm, sender.proc)(self, sender)

    def _deliver(self, receiver: ProcessState, pattern: ast.Pattern,
                 values: list[Value], fresh: list[bool], fused: bool) -> None:
        receiver.version += 1  # dirty for copy-on-write snapshots
        self._dirty_procs.add(receiver)
        if fused:
            self._boundary.deliver_components(pattern, receiver.proc)(
                self, receiver, values, fresh)
            return
        value = values[0]
        bind = self._boundary.bind(pattern, receiver.proc)
        if isinstance(value, Ref):
            if not fresh[0]:
                self.heap.link(value)  # the pointer-send "copy" (§6.1)
            bind(self, receiver, value, True)
            self.heap.unlink(value)
        else:
            bind(self, receiver, value, False)

    def _resume(self, ps: ProcessState, arm: int | None) -> None:
        """Continue a sender or receiver past the move it took part in:
        after its ``in``/``out``, or into the body of alt arm ``arm``."""
        ps.version += 1  # dirty for copy-on-write snapshots
        self._dirty_procs.add(ps)
        if arm is None:
            ps.pc += 1
        else:
            ps.pc = ps.proc.instrs[ps.pc].arms[arm].body_target
        ps.status = Status.READY
        ps.block = None
        ps.wait_mask = 0
        self._ready.add(ps)
        self._stale.add(ps)

    # -- external moves -----------------------------------------------------------

    def _apply_external_deliver(self, move: ExternalDeliver) -> None:
        bridge: ExternalWriter = self.externals[move.channel]
        taken = bridge.take(move.entry_name)
        args = move.args if move.args else tuple(taken or ())
        entry = self.program.interfaces[move.channel][move.entry_name]
        value = self._boundary.build(entry)(self, args)
        receiver = self.processes[move.receiver_pid]
        pattern = self._receiver_pattern(receiver, move.receiver_arm)
        if not self._boundary.test(pattern, receiver.proc)(self, receiver, value):
            # Values turned out not to match (e.g. an Eq constraint):
            # reclaim and report — disjointness made this a program error.
            if isinstance(value, Ref):
                self.heap.unlink(value)
            raise ESPRuntimeError(
                f"external message '{move.entry_name}' does not match the "
                f"waiting pattern on '{move.channel}'"
            )
        self._deliver(receiver, pattern, [value], [True], fused=False)
        self._resume(receiver, move.receiver_arm)

    def _apply_external_accept(self, move: ExternalAccept) -> None:
        bridge: ExternalReader = self.externals[move.channel]
        sender = self.processes[move.sender_pid]
        values, fresh, fused = self._take_sender_payload(sender, move.sender_arm)
        for entry_name, entry in self.program.interfaces.get(move.channel,
                                                             {}).items():
            args = self._boundary.match_entry(entry, fused)(self, values)
            if args is not None:
                break
        else:
            raise ESPRuntimeError("message matches no external interface entry")
        bridge.accept(entry_name, args)
        # Consume the message: fresh parts are reclaimed, borrowed parts
        # stay with the sender (the host side received a copy).
        for value, f in zip(values, fresh):
            if f and isinstance(value, Ref):
                self.heap.unlink(value)
        self._resume(sender, move.sender_arm)

    def build_value(self, t: Type, raw) -> Value:
        """Convert plain Python data into a heap value of type ``t``."""
        return build_value(self.heap, t, raw)

    # -- status ---------------------------------------------------------------------

    def all_done(self) -> bool:
        return self._ndone == len(self.processes)

    def blocked_processes(self) -> list[ProcessState]:
        return [ps for ps in self.processes if ps.status is Status.BLOCKED]

    def blocked_summary(self) -> str:
        """Human-readable list of blocked processes with the source
        location each is stuck at — for an ``alt``, the locations of
        the arms whose guards held (the cases the process is actually
        waiting on), not just the statement as a whole."""
        parts = []
        for ps in self.blocked_processes():
            location = None
            block = ps.block
            if block is not None and block.kind == "alt":
                spans = {str(e.arm.span) for e in block.arms
                         if e.arm.span is not None}
                if spans:
                    location = ", ".join(sorted(spans))
            if location is None and ps.pc < len(ps.proc.instrs):
                span = ps.proc.instrs[ps.pc].span
                if span is not None:
                    location = str(span)
            parts.append(f"{ps.proc.name} at {location}" if location
                         else ps.proc.name)
        return ", ".join(parts)

    # -- snapshot / restore ------------------------------------------------------------

    def snapshot(self):
        """A structurally-shared copy of the dynamic state (for the
        verifier).  Copy-on-write: per-process and per-heap-object
        records are immutable and reused verbatim from the previous
        snapshot when the process/object was not touched since, so a
        transition only re-records what it mutated.  The records (and
        the heap dict itself) are shared across snapshots and must
        never be mutated by the caller."""
        counters = self.snap_counters
        sync = self._sync_state
        if sync is not None:
            # Every process outside the dirty set still matches the
            # last-restored state, so its record can be copied from that
            # state's procs tuple without even loading the ProcessState.
            dirty = self._dirty_procs
            procs_list = list(sync[0])
            for ps in dirty:
                procs_list[ps.pid] = self._record_proc(ps, counters)
            counters.proc_records_reused += len(procs_list) - len(dirty)
            procs = tuple(procs_list)
        else:
            record = self._record_proc
            procs = tuple(record(ps, counters) for ps in self.processes)
        heap_records, next_oid = self.heap.snapshot_records()
        return (procs, heap_records, next_oid, self.external_state())

    def external_state(self) -> tuple:
        """``(name, snapshot)`` of every bridge with state, in name
        order: the external part of snapshots and of state keys."""
        return tuple([(name, bridge.snapshot())
                      for name, bridge in self.stateful_bridges])

    def _record_proc(self, ps: ProcessState, counters):
        if ps._record_version != ps.version:
            # The BlockInfo itself goes into the record: it is never
            # changed once its process blocks, so restore can put the
            # same object back.  The last field is None; the records
            # the verifier's transition cache builds carry in it what
            # the state keyers know of the local state.
            ps._record = (ps.pc, tuple(ps.frame), ps.status, ps.block,
                          ps.wait_mask, None)
            ps._record_version = ps.version
            counters.proc_records_built += 1
        else:
            counters.proc_records_reused += 1
        return ps._record

    def restore(self, state) -> None:
        """Restore a :meth:`snapshot` state.  Diff-based: a process
        whose current record *is* the target record (and which was not
        mutated since that record was taken) is skipped entirely.
        Restoring the same state that was restored last (the DFS
        explorer's per-move pattern) walks only the processes dirtied
        since, not the whole process list."""
        procs, heap_records, next_oid, ext = state
        counters = self.snap_counters
        dirty = self._dirty_procs
        if state is self._sync_state:
            counters.restore_sync_hits += 1
            if dirty:
                for ps in dirty:
                    self._restore_proc(ps, procs[ps.pid], counters)
                dirty.clear()
        else:
            for ps, rec in zip(self.processes, procs):
                if ps._record is rec and ps._record_version == ps.version:
                    counters.proc_restores_skipped += 1
                    continue
                self._restore_proc(ps, rec, counters)
            self._sync_state = state
            dirty.clear()
        self.heap.restore_records(heap_records, next_oid)
        if ext:
            externals = self.externals
            for name, bridge_state in ext:
                externals[name].restore(bridge_state)

    def _restore_proc(self, ps: ProcessState, rec, counters) -> None:
        if ps._record is rec and ps._record_version == ps.version:
            counters.proc_restores_skipped += 1
            return
        counters.proc_restores += 1
        self.enter_record(ps, rec)

    def enter_record(self, ps: ProcessState, rec) -> None:
        """Put ``ps`` into the local state of snapshot record ``rec`` as
        a transition leaves a process: dirty (the next :meth:`restore`
        undoes it), stale (the next :meth:`enabled_moves` re-indexes
        it), and with ``rec`` kept as its record (the next
        :meth:`snapshot` reuses it).  :meth:`restore` resets processes
        through it, and the verifier's transition cache replays a
        transition with it instead of running the process."""
        pc, frame, status, block, wait_mask, _ = rec
        if ps.status is Status.DONE:
            self._ndone -= 1
        ps.pc = pc
        ps.frame = list(frame)
        ps.status = status
        ps.wait_mask = wait_mask
        ps.block = block
        if status is Status.READY:
            self._ready.add(ps)
        else:
            if status is Status.DONE:
                self._ndone += 1
            self._ready.discard(ps)
        self._stale.add(ps)
        self._dirty_procs.add(ps)
        ps.version += 1
        ps._record = rec
        ps._record_version = ps.version


# ---------------------------------------------------------------------------
# External offers
# ---------------------------------------------------------------------------


def _patterns_compatible(a: ast.Pattern, b: ast.Pattern) -> bool:
    """Could a message built from pattern ``a`` match pattern ``b``?
    A conservative static test used to route external offers."""
    if isinstance(a, ast.PBind) or isinstance(b, ast.PBind):
        return True
    if isinstance(b, ast.PEq) or isinstance(a, ast.PEq):
        return True  # value-dependent; rechecked at delivery
    if isinstance(a, ast.PRecord) and isinstance(b, ast.PRecord):
        if len(a.items) != len(b.items):
            return False
        return all(_patterns_compatible(x, y) for x, y in zip(a.items, b.items))
    if isinstance(a, ast.PUnion) and isinstance(b, ast.PUnion):
        return a.tag == b.tag and _patterns_compatible(a.value, b.value)
    return False


def _admits(entry: ast.Pattern, args: tuple) -> bool:
    """Can ``args`` be delivered through interface entry ``entry``?
    They must cover every binder and convert to the binder's type."""
    admit = getattr(entry, "_admit_fn", None)
    if admit is None:
        admit = entry._admit_fn = _compile_admit(tuple(_binder_types(entry)))
    return admit(args)


def _compile_admit(types: tuple):
    arity = len(types)
    if any(isinstance(t, (RecordType, UnionType, ArrayType)) for t in types):
        return lambda args: len(args) >= arity and all(
            _encodable(t, raw) for t, raw in zip(types, args))

    def admit_scalars(args):
        if len(args) < arity:
            return False
        for raw, _ in zip(args, types):
            if not isinstance(raw, int):  # bools are ints
                return False
        return True

    return admit_scalars


def _binder_types(pattern: ast.Pattern):
    """An interface entry's binder types, in argument order."""
    if isinstance(pattern, ast.PBind):
        yield pattern.type
    elif isinstance(pattern, ast.PRecord):
        for item in pattern.items:
            yield from _binder_types(item)
    elif isinstance(pattern, ast.PUnion):
        yield from _binder_types(pattern.value)


def _encodable(t: Type, raw) -> bool:
    """Would :func:`repro.runtime.interp.build_value` accept ``raw`` as
    a value of type ``t``?  (Checked without allocating.)"""
    if isinstance(t, RecordType):
        return (isinstance(raw, (tuple, list)) and len(raw) == len(t.fields)
                and all(_encodable(ft, item)
                        for (_, ft), item in zip(t.fields, raw)))
    if isinstance(t, UnionType):
        if not isinstance(raw, (tuple, list)) or len(raw) != 2:
            return False
        tag_type = t.tag_type(raw[0])
        return tag_type is not None and _encodable(tag_type, raw[1])
    if isinstance(t, ArrayType):
        return isinstance(raw, (tuple, list)) and all(
            _encodable(t.element, item) for item in raw)
    return isinstance(raw, int)  # bools are ints
