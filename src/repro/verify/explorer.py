"""Exhaustive state-space exploration (the paper's SPIN exhaustive
mode, §5.1).

Processes are deterministic between blocking points and share no
state, so the only interleaving that matters is the choice of the next
synchronisation — a sound partial-order reduction that is exactly why
ESP models stay small enough to verify (§5.3).  A *transition* is:
apply one enabled move, then run every runnable process to its next
block.

Every search mode runs the same transition, :func:`step`, and the same
deadlock check, :func:`deadlock`: the depth-first :class:`Explorer`
(plain and reduced), the liveness graph builder, random simulation and
counterexample replay.  SPIN's search modes differ only in the visited
store and in which moves they take, and so do these: the collapse
store (:mod:`repro.verify.collapse`) is exact, and bit-state search is
the same :class:`Explorer` over a
:class:`~repro.verify.bitstate.BitstateStore`.

Each search also keeps a :class:`TransitionCache`: processes share no
state, so a transition is a function of its participants' local states
and the message, and a transition already run in the same search is
replayed from the cache instead of executed again.

The explorer is driven through :meth:`Machine.snapshot`/``restore``
(the same interpreter that executes firmware — one program, both
targets, Figure 4).  The hot path stays free of string formatting: a
stack entry keeps only a parent link ``(parent link, move index)``, a
violation records the move-index path that link ends, and the
human-readable traces are rebuilt afterwards by deterministic replay
(:func:`repro.verify.counterexample.replay_path`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import AssertionFailure, ESPError, MemorySafetyError
from repro.runtime.machine import (
    ExternalAccept,
    ExternalDeliver,
    Machine,
    Rendezvous,
)
from repro.verify.collapse import make_visited_store
from repro.verify.counterexample import replay_path
from repro.verify.properties import Invariant, Violation
from repro.verify.reduction import Reducer, parse_reduce
from repro.verify.state import (
    HeapWalk,
    Interned,
    canonical_state,
    fresh_records,
    is_quiescent,
)


@dataclass
class ExploreResult:
    """Statistics of one exploration run (compare with the paper's
    "2251 states ... 0.5 second ... 2.2 Mbytes")."""

    states: int = 0
    transitions: int = 0
    # Enabled moves the reduction proved redundant and did not expand;
    # ``transitions`` counts only moves actually executed, so the two
    # are reported separately (their sum is what a plain run expands).
    transitions_pruned: int = 0
    violations: list[Violation] = field(default_factory=list)
    complete: bool = True
    max_depth: int = 0
    elapsed_seconds: float = 0.0
    memory_bytes: int = 0  # actual footprint of the visited-state store
    stats: dict = field(default_factory=dict)  # store/interp/COW counters

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"{self.states} states, {self.transitions} transitions expanded "
            f"({self.transitions_pruned} pruned), "
            f"depth {self.max_depth}, {self.elapsed_seconds:.3f}s, "
            f"~{self.memory_bytes / 1e6:.2f} MB [{status}]"
        )


def step(machine, move, invariants, cache=None) -> Violation | None:
    """One transition: apply ``move`` (None applies nothing, which
    settles the initial state), run every runnable process to its next
    block, and check the invariants.  With a :class:`TransitionCache`,
    a move the search already ran from the same local states is
    replayed instead.  Returns the violation that ended the branch,
    with its trace and depth left for the caller to fill, or None."""
    try:
        if (cache is not None and move is not None
                and move.channel not in cache.uncached):
            cache.apply(move)
        else:
            if move is not None:
                machine.apply(move)
            machine.run_ready()
    except ESPError as err:
        return Violation(violation_kind(err), err.format())
    for invariant in invariants:
        message = invariant(machine)
        if message is not None:
            return Violation("invariant", message)
    return None


def _scalar_args(args) -> bool:
    """Can a delivery with these args be cached?  They must be in the
    move (else ``take()`` supplies them, after the bridge is called),
    as a tuple of ints or bools: any other arg is an aggregate, which
    the delivery builds on the heap."""
    if type(args) is not tuple or not args:
        return False
    for arg in args:
        if not isinstance(arg, int):
            return False
    return True


class _AcceptRecorder:
    """Stands in for an external reader while a cache miss runs an
    accept, to learn the ``(entry, args)`` the reader is handed."""

    __slots__ = ("bridge", "accepted")

    def __init__(self, bridge):
        self.bridge = bridge
        self.accepted = None

    def accept(self, entry_name: str, args: tuple) -> None:
        self.accepted = (entry_name, args)
        self.bridge.accept(entry_name, args)


class TransitionCache:
    """The transitions one search has run, replayed instead of run
    again (docs/VERIFIER.md, "Local transition cache").

    ESP processes share no state and channels copy, so a transition —
    one move, then its one or two participants run to their next block
    — is a function of the participants' local states and the message.
    A transition is keyed on the move's descriptor (which holds the
    args a delivery takes) and the identities of the participants'
    records.  Its value is the participants' resulting records, the
    counters it moved (each participant's ``steps`` included) and, for
    an accept, the ``(entry, args)`` handed to the reader.  A hit still
    calls the bridge once, as :meth:`Machine.apply` does, then puts the
    participants into the cached records with
    :meth:`Machine.enter_record`; no ESP code runs.

    Only a transition whose participants hold no heap reference before
    or after, that performs no heap operation and that neither prints
    nor raises is cached.  Cacheability is settled per channel, by a
    fact fixed per process (a local of aggregate type), by a delivery
    arg that is not an int or bool (an aggregate the delivery builds on
    the heap), or by a move on the channel that once touched the heap
    or printed; a move on a channel dropped so costs a set lookup, not
    an encoding.  A channel none of whose moves is replayed is dropped
    too, once it has made :attr:`UNREPLAYED` of them.

    Result records are interned by the process's canonical entry and
    end in an :class:`~repro.verify.state.Interned`: equal local states
    share one record object, and the keyers (:func:`canonical_state`,
    the collapse store, the reducer) reuse per-record results instead
    of re-encoding.  A cache lives for one search."""

    __slots__ = ("machine", "hits", "uncached", "_warmup", "_scalar",
                 "_moves", "_records", "_misses", "_replayed")

    #: The first cacheable moves of a search run uncached.  A recorded
    #: transition pays only when it repeats, and the shortest searches
    #: repeat none: the verify corpus's assertion chains make two
    #: cacheable moves and stop.  A move left unrecorded runs again
    #: where it repeats: over the corpus a warm-up of 3 gives up 60 of
    #: 19,826 replays, and 8 would give up 221 (docs/VERIFIER.md).
    WARMUP = 3

    #: A channel that has made this many cacheable moves and replayed
    #: none is dropped: its transitions do not repeat (a counter or a
    #: sequence number in the local states), or its participants come
    #: to it with no record of their local state.  Every channel of
    #: the verify corpus that replays at all does so within its first 8
    #: moves; the VMMC receiver's make up to 80 and replay none
    #: (docs/VERIFIER.md).
    UNREPLAYED = 32

    def __init__(self, machine: Machine):
        self.machine = machine
        self.hits = 0
        self._warmup = self.WARMUP
        # pid -> are all its locals scalar (so it never holds a ref)?
        self._scalar = [
            all(name in ps.proc.locals
                and not ps.proc.locals[name].is_aggregate()
                for name in ps.proc.slot_of)
            for ps in machine.processes
        ]
        # Channels never cached again: a move on one involved a process
        # with an aggregate local or an aggregate delivery arg, or
        # touched the heap, or printed, or the channel made UNREPLAYED
        # moves without a replay.  :func:`step` runs their moves
        # without calling the cache.
        self.uncached: set[str] = set()
        # move descriptor -> {source record ids: transition}.
        self._moves: dict = {}
        # (pid, canonical entry) -> interned record.
        self._records: dict = {}
        # Moves not replayed per channel that has not replayed yet, and
        # the channels that have.
        self._misses: dict[str, int] = {}
        self._replayed: set[str] = set()

    @classmethod
    def for_machine(cls, machine):
        """A cache for ``machine``, or None when nothing could be
        cached: it is not a plain :class:`Machine`, or every process
        has a local of aggregate type."""
        if not isinstance(machine, Machine):
            return None
        cache = cls(machine)
        return cache if any(cache._scalar) else None

    def stats(self) -> dict:
        """What the cache holds: the transitions recorded, the interned
        records, and the replays so far."""
        return {"transitions": sum(len(t) for t in self._moves.values()),
                "records": len(self._records), "hits": self.hits}

    def _intern(self, ps):
        """Make ``ps``'s record the interned record of its local state
        and return it, or None when the state holds a heap reference."""
        walk = HeapWalk(self.machine.heap.objects)
        entry = walk.process(ps, ps.frame)
        if walk.refs:
            return None
        key = (ps.pid, entry)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = (ps.pc, tuple(ps.frame), ps.status,
                                           ps.block, ps.wait_mask,
                                           Interned(entry))
        ps._record = record
        ps._record_version = ps.version
        return record

    def apply(self, move) -> None:
        """Apply ``move`` and settle, replaying the transition when this
        search already ran it from the same local states."""
        if self._warmup:
            self._warmup -= 1
            return self._run(move)
        machine = self.machine
        processes = machine.processes
        scalar = self._scalar
        kind = type(move)
        if kind is Rendezvous:
            one = processes[move.sender_pid]
            two = processes[move.receiver_pid]
            cacheable = scalar[one.pid] and scalar[two.pid]
        elif kind is ExternalAccept:
            one, two = processes[move.sender_pid], None
            cacheable = scalar[one.pid]
        else:
            one, two = processes[move.receiver_pid], None
            cacheable = scalar[one.pid] and _scalar_args(move.args)
        channel = move.channel
        if not cacheable:
            self.uncached.add(channel)
            return self._run(move)
        if (machine._ready or one._record_version != one.version
                or (two is not None and two._record_version != two.version)):
            # A runnable process the settle would run too, or no record
            # of a participant's local state.
            self._missed(channel)
            return self._run(move)
        if two is not None:
            key = (id(one._record), id(two._record))
            descriptor = (channel, move.sender_pid, move.sender_arm,
                          move.receiver_pid, move.receiver_arm)
        else:
            key = id(one._record)
            descriptor = ((channel, move.sender_pid, move.sender_arm)
                          if kind is ExternalAccept else
                          (channel, move.entry_name, move.args,
                           move.receiver_pid, move.receiver_arm))
        table = self._moves.get(descriptor)
        if table is None:
            table = self._moves[descriptor] = {}
        done = table.get(key)
        if done is None:
            parts = (one,) if two is None else (one, two)
            if self._record(move, parts, table, key):
                self._missed(channel)
            else:
                self.uncached.add(channel)
            return None
        # ``done`` holds the source records, so the ids in its key
        # cannot name other objects.
        _, (instructions, switches, alt_blocks), outs, accepted = done
        if kind is ExternalDeliver:
            machine.externals[channel].take(move.entry_name)
        elif kind is ExternalAccept:
            machine.externals[channel].accept(*accepted)
        counters = machine.counters
        counters.instructions += instructions
        counters.context_switches += switches
        counters.alt_blocks += alt_blocks
        counters.transfers += 1
        enter = machine.enter_record
        for ps, record, steps in outs:
            enter(ps, record)
            ps.steps += steps
        self.hits += 1
        self._replayed.add(channel)
        return None

    def _missed(self, channel: str) -> None:
        """Count a move on ``channel`` that was not replayed, and drop
        the channel once it has made :attr:`UNREPLAYED` such moves and
        replayed none."""
        if channel not in self._replayed:
            misses = self._misses[channel] = self._misses.get(channel, 0) + 1
            if misses == self.UNREPLAYED:
                self.uncached.add(channel)

    def _run(self, move) -> None:
        self.machine.apply(move)
        self.machine.run_ready()

    def _record(self, move, parts, table, key) -> bool:
        """Run ``move`` and cache its transition; False when it touched
        the heap or printed, so its channel is never cached.  (It moves
        ``transfers`` by one and no other counter but the deltas kept.)"""
        machine = self.machine
        counters = machine.counters
        heap = machine.heap
        heap_ops = heap.counters.snapshot()
        touched = len(heap._touched)
        instructions = counters.instructions
        switches = counters.context_switches
        alt_blocks = counters.alt_blocks
        prints = counters.prints
        sources = [ps._record for ps in parts]
        steps = [ps.steps for ps in parts]
        accepted = None
        if type(move) is ExternalAccept:
            reader = machine.externals[move.channel]
            recorder = machine.externals[move.channel] = _AcceptRecorder(
                reader)
            try:
                machine.apply(move)
            finally:
                machine.externals[move.channel] = reader
            accepted = recorder.accepted
        else:
            machine.apply(move)
        machine.run_ready()
        if (counters.prints != prints
                or heap.counters.snapshot() != heap_ops
                or len(heap._touched) != touched):
            return False
        outs = []
        for ps, steps_before in zip(parts, steps):
            record = self._intern(ps)
            if record is None:
                return False
            outs.append((ps, record, ps.steps - steps_before))
        table[key] = (sources,
                      (counters.instructions - instructions,
                       counters.context_switches - switches,
                       counters.alt_blocks - alt_blocks),
                      outs, accepted)
        return True


def deadlock(machine, quiescence_ok: bool) -> Violation | None:
    """The deadlock violation of a state with no enabled move, or None
    when every process has finished (normal termination) or, with
    ``quiescence_ok``, when everything is blocked because the
    environment has simply gone quiet (firmware idling is normal)."""
    if not machine.blocked_processes():
        return None
    if quiescence_ok and is_quiescent(machine):
        return None
    return Violation(
        "deadlock", f"no enabled move; blocked: {machine.blocked_summary()}"
    )


def violation_kind(err: ESPError) -> str:
    """The violation category of an interpreter exception."""
    if isinstance(err, AssertionFailure):
        return "assertion"
    if isinstance(err, MemorySafetyError):
        return "memory"
    return "runtime"


def _path(link) -> tuple[int, ...]:
    """The move-index path from the root that a parent link ends."""
    path = []
    while link is not None:
        link, index = link
        path.append(index)
    path.reverse()
    return tuple(path)


class _Stop(Exception):
    """Ends a ``stop_at_first`` search at its first violation."""


class Explorer:
    """DFS over the rendezvous-level state space, plain or reduced, over
    any visited store: exhaustive over the exact stores, partial over a
    bit-state one."""

    def __init__(
        self,
        machine: Machine,
        invariants: list[Invariant] | None = None,
        check_deadlock: bool = True,
        quiescence_ok: bool = True,
        max_states: int | None = None,
        max_depth: int | None = None,
        stop_at_first: bool = True,
        # "collapse", "plain", or a ready store instance (see
        # repro.verify.collapse.make_visited_store; an instance must be
        # fresh — explore() fills its visited set).
        store="collapse",
        reduce: str | None = None,
    ):
        self.machine = machine
        self.invariants = list(invariants or [])
        self.check_deadlock = check_deadlock
        # With quiescence_ok, a state where everything is blocked but the
        # environment has simply gone quiet is not a deadlock (firmware
        # idling is normal); without it, any move-less state is flagged.
        self.quiescence_ok = quiescence_ok
        self.max_states = max_states
        self.max_depth = max_depth
        self.stop_at_first = stop_at_first
        self.store_kind = store
        # "por", "sym", "por,sym", or None (see repro.verify.reduction).
        self.reduce = parse_reduce(reduce)

    def explore(self) -> ExploreResult:
        machine = self.machine
        result = ExploreResult()
        started = time.perf_counter()
        fresh_records(machine)
        # Pre-settle snapshot: the replay origin for counterexamples.
        initial_snapshot = machine.snapshot()
        store = make_visited_store(self.store_kind)
        reducer = (Reducer(machine, self.reduce,
                           has_invariants=bool(self.invariants))
                   if self.reduce else None)
        # Violations in discovery order, each with its move-index path.
        self._found: list[tuple[Violation, tuple[int, ...]]] = []
        cache = TransitionCache.for_machine(machine)
        try:
            found = step(machine, None, self.invariants)
            if found is not None:
                self._record(found, 0, None)
            elif reducer is None:
                self._explore_plain(result, store, cache)
            else:
                self._explore_reduced(result, store, reducer, cache)
        except _Stop:
            pass
        for violation, path in self._found:
            machine.restore(initial_snapshot)
            violation.trace, _ = replay_path(machine, path)
            result.violations.append(violation)
        if result.violations:
            result.complete = False
        result.memory_bytes = store.memory_bytes()
        result.stats = self._collect_stats(store)
        if cache is not None:
            result.stats["transition_cache"] = cache.stats()
        if reducer is not None:
            result.stats["reduction"] = {
                "modes": self.reduce.label,
                "ample_ok": reducer.ample_ok,
                "sym": reducer.sym,
                "transitions_pruned": result.transitions_pruned,
                **reducer.counters,
            }
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def _record(self, violation: Violation, depth: int, link) -> None:
        """Keep a violation found ``depth`` moves down ``link``; replay
        rebuilds its trace once the search ends.  Under
        ``stop_at_first`` the search ends here."""
        violation.depth = depth
        self._found.append((violation, _path(link)))
        if self.stop_at_first:
            raise _Stop

    def _check_deadlock(self, depth: int, link) -> None:
        if self.check_deadlock:
            found = deadlock(self.machine, self.quiescence_ok)
            if found is not None:
                self._record(found, depth, link)

    def _explore_plain(self, result: ExploreResult, store, cache) -> None:
        machine = self.machine
        invariants = self.invariants
        max_states = self.max_states
        max_depth = self.max_depth
        _, token = store.add_current(machine)
        result.states = 1
        root = machine.snapshot()
        if token is not None:
            token[0] = root  # bind the intern token to its snapshot
        # Entry: (snapshot, depth, parent link, intern token).
        stack = [(root, 0, None, token)]
        while stack:
            snapshot, depth, link, token = stack.pop()
            machine.restore(snapshot)
            moves = machine.enabled_moves()
            if not moves:
                self._check_deadlock(depth, link)
                continue
            if max_depth is not None and depth >= max_depth:
                result.complete = False
                continue
            depth += 1
            for index, move in enumerate(moves):
                machine.restore(snapshot)
                result.transitions += 1
                found = step(machine, move, invariants, cache)
                if found is not None:
                    self._record(found, depth, (link, index))
                    continue
                if max_states is not None and result.states >= max_states:
                    # At the bound only a new state is refused, and only
                    # a refusal leaves the search incomplete.
                    if store.contains(canonical_state(machine)):
                        continue
                    result.complete = False
                    return
                is_new, child_token = store.add_current(machine, token)
                if not is_new:
                    continue
                result.states += 1
                result.max_depth = max(result.max_depth, depth)
                child = machine.snapshot()
                if child_token is not None:
                    child_token[0] = child
                stack.append((child, depth, (link, index), child_token))

    # -- reduced exploration ------------------------------------------------------

    def _explore_reduced(self, result: ExploreResult, store,
                         reducer: Reducer, cache) -> None:
        """DFS over the reduced state graph: ample sets (C1–C3), sleep
        sets with the state-caching wake-up rule, and transition
        chaining, keyed by the symmetry canonicalizer when ``sym`` is
        on.  See :mod:`repro.verify.reduction` for the soundness
        conditions; violations carry full move-index paths, so their
        counterexamples replay on an unreduced machine exactly like the
        plain explorer's."""
        machine = self.machine
        invariants = self.invariants
        max_depth = self.max_depth
        counters = reducer.counters
        # Sleep sets of stored states (only kept while non-empty); the
        # wake-up rule re-expands a state revisited with a smaller set.
        sleep_of: dict = {}
        # DFS-path membership as a multiset: chain intermediates of
        # different nodes may share a key, and C3 needs the key to stay
        # "on the path" until the *last* holder pops.
        in_stack: dict = {}

        def stack_add(key):
            in_stack[key] = in_stack.get(key, 0) + 1

        def stack_discard(key):
            count = in_stack.get(key, 0) - 1
            if count <= 0:
                in_stack.pop(key, None)
            else:
                in_stack[key] = count

        def chase(sleep, depth, link):
            """Advance through states where reduction leaves exactly one
            move to explore, without storing the intermediates.  The
            machine must be settled.  Returns ``(key, changed, sleep,
            depth, link, intermediates, forced)`` — ``key`` is None when
            the branch ended in a violation, ``forced`` is True when a
            strict chain step closed a cycle onto the DFS path and the
            endpoint must therefore be expanded in full (C3)."""
            chain_keys = set()
            inter = []
            while True:
                key = reducer.canonical(machine)
                changed = reducer.last_changed
                if (key in chain_keys or key in in_stack
                        or store.contains(key)):
                    return key, changed, sleep, depth, link, inter, False
                if max_depth is not None and depth >= max_depth:
                    return key, changed, sleep, depth, link, inter, False
                moves = machine.enabled_moves()
                if not moves:
                    return key, changed, sleep, depth, link, inter, False
                infos = [reducer.move_info(m) for m in moves]
                sleep_ids = {t[0] for t in sleep}
                selection, explore = reducer.select_ample(
                    machine, moves, infos, sleep_ids
                )
                if not reducer.chain_ok or len(explore) != 1:
                    return key, changed, sleep, depth, link, inter, False
                index = explore[0]
                info = infos[index]
                strict = len(selection) < len(moves)
                snap = machine.snapshot() if strict else None
                result.transitions += 1
                result.transitions_pruned += len(moves) - 1
                counters["chained"] += 1
                found = step(machine, moves[index], invariants, cache)
                if found is not None:
                    self._record(found, depth + 1, (link, index))
                    return None, False, sleep, depth, link, inter, False
                if strict:
                    # In-chain C3 peek: a strict step whose successor is
                    # already on the DFS path (or earlier in this chain)
                    # would defer the pruned moves around a cycle; stop
                    # the chain here and expand this state in full.
                    key2 = reducer.canonical(machine)
                    if key2 in in_stack or key2 in chain_keys:
                        machine.restore(snap)
                        result.transitions -= 1
                        result.transitions_pruned -= len(moves) - 1
                        counters["chained"] -= 1
                        counters["c3_forced"] += 1
                        return key, changed, sleep, depth, link, inter, True
                chain_keys.add(key)
                inter.append(key)
                depth += 1
                link = (link, index)
                sleep = frozenset(
                    t for t in sleep if reducer.independent(t, info)
                )

        nodes: list[dict] = []

        def push(key, sleep, depth, link, inter, forced, is_new):
            if is_new:
                result.states += 1
                result.max_depth = max(result.max_depth, depth)
            if sleep:
                sleep_of[key] = sleep
            stack_add(key)
            for k in inter:
                stack_add(k)
            nodes.append({
                "key": key, "snap": machine.snapshot(), "sleep": sleep,
                "depth": depth, "link": link, "inter": inter,
                "forced": forced, "pending": None, "done": [],
                "attempted": 0,
            })

        key0, _, sleep0, depth0, link0, inter0, forced0 = chase(
            frozenset(), 0, None)
        if key0 is not None:
            store.add(key0)
            push(key0, sleep0, depth0, link0, inter0, forced0, True)

        while nodes:
            node = nodes[-1]
            if node["pending"] is None:
                # First visit: select the ample set at this node.
                machine.restore(node["snap"])
                moves = machine.enabled_moves()
                if not moves:
                    self._check_deadlock(node["depth"], node["link"])
                    node["pending"] = []
                    node["moves"] = []
                    continue
                if max_depth is not None and node["depth"] >= max_depth:
                    result.complete = False
                    node["pending"] = []
                    node["moves"] = moves
                    continue
                infos = [reducer.move_info(m) for m in moves]
                sleep_ids = {t[0] for t in node["sleep"]}
                if node["forced"]:
                    selection = tuple(range(len(moves)))
                    explore = [i for i in selection
                               if infos[i][0] not in sleep_ids]
                else:
                    selection, explore = reducer.select_ample(
                        machine, moves, infos, sleep_ids
                    )
                if len(selection) < len(moves):
                    counters["ample_hits"] += 1
                counters["sleep_skips"] += len(selection) - len(explore)
                node.update(pending=explore, moves=moves, infos=infos,
                            selection=set(selection),
                            strict=len(selection) < len(moves))
                continue
            if not node["pending"]:
                result.transitions_pruned += (
                    len(node["moves"]) - node["attempted"]
                )
                nodes.pop()
                stack_discard(node["key"])
                for k in node["inter"]:
                    stack_discard(k)
                continue
            index = node["pending"].pop(0)
            info = node["infos"][index]
            node["attempted"] += 1
            machine.restore(node["snap"])
            result.transitions += 1
            depth = node["depth"] + 1
            link = (node["link"], index)
            found = step(machine, node["moves"][index], invariants, cache)
            if found is not None:
                self._record(found, depth, link)
                node["done"].append(info)
                continue
            base_sleep = frozenset(
                t for t in set(node["sleep"]) | set(node["done"])
                if reducer.independent(t, info)
            ) if reducer.sleep_ok else frozenset()
            node["done"].append(info)
            key, changed, child_sleep, depth, link, inter, forced = chase(
                base_sleep, depth, link
            )
            if key is None:
                continue
            if key in in_stack and node["strict"]:
                # Dynamic C3 repair: this strict node's edge closed a
                # cycle onto the DFS path, so its deferred moves could
                # be ignored forever — de-strictify and explore them.
                counters["c3_repairs"] += 1
                node["strict"] = False
                sleep_ids = {t[0] for t in node["sleep"]}
                extra = [
                    i for i in range(len(node["moves"]))
                    if i not in node["selection"]
                    and node["infos"][i][0] not in sleep_ids
                ]
                node["selection"].update(extra)
                node["pending"].extend(extra)
                continue
            if store.contains(key):
                if changed:
                    counters["sym_collisions"] += 1
                stored_sleep = sleep_of.get(key, frozenset())
                child_ids = {t[0] for t in child_sleep}
                if {t[0] for t in stored_sleep} <= child_ids:
                    continue
                # Wake-up rule: revisited with a smaller sleep set —
                # moves asleep then but awake now were never explored
                # from here; re-expand under the intersection.
                newsleep = frozenset(
                    t for t in stored_sleep if t[0] in child_ids
                )
                if newsleep:
                    sleep_of[key] = newsleep
                else:
                    sleep_of.pop(key, None)
                if key in in_stack:
                    continue
                push(key, newsleep, depth, link, inter, forced, False)
                continue
            if (self.max_states is not None
                    and result.states >= self.max_states):
                # The first new state beyond the bound is refused; only
                # that leaves the search incomplete.
                result.complete = False
                return
            store.add(key)
            push(key, child_sleep, depth, link, inter, forced, True)

    # -- helpers ------------------------------------------------------------------

    def _collect_stats(self, store) -> dict:
        machine = self.machine
        stats = {"store": store.stats()}
        counters = getattr(machine, "counters", None)
        if counters is not None:
            stats["interp"] = {
                name: getattr(counters, name)
                for name in (
                    "instructions", "context_switches", "transfers",
                    "alt_blocks", "matches", "idle_polls", "prints",
                )
            }
        snap = getattr(machine, "snap_counters", None)
        if snap is not None:
            stats["snapshot"] = snap.to_dict()
        heap = getattr(machine, "heap", None)
        if heap is not None and hasattr(heap, "cow"):
            stats["heap_cow"] = heap.cow.to_dict()
        return stats
