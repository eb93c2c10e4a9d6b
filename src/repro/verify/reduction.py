"""Ample-set partial-order and symmetry reduction for the verifier.

SPIN's real-world capacity comes from exploring *fewer* states, not
just faster states/sec (§5.1), and ESP's semantics make both classic
reductions unusually clean:

**Partial-order reduction.**  Processes share no state, so two
rendezvous on different channels between disjoint process pairs
commute — executing them in either order reaches the same global
state.  :class:`StaticAnalysis` computes the static readers/writers of
every channel from the lowered IR; :class:`Reducer` turns that into a
per-state *ample set*: a subset of the enabled moves whose exploration
suffices.  The selector enforces the standard soundness conditions:

* **C1 (dependence closure)** — an ample set is built as a closure
  over the processes a candidate move touches: every channel such a
  process is blocked on drags in that channel's static peers, so no
  move outside the set can interfere with (or be enabled by) a move
  inside it before one of the set's moves fires.
* **C2 (visibility)** — moves that can affect a property outside the
  chosen processes are never deferred: user invariants and a bounded
  heap-object table couple all processes (an allocation anywhere can
  trip the shared table), so either disables ample strictness
  entirely, and channels backed by a *stateful* external bridge
  (``snapshot() is not None``) make all their users one clique.
* **C3 (cycle proviso)** — deferral must not last forever around a
  cycle.  The explorer detects this dynamically: expansion keeps the
  DFS path in an in-stack set, and any *strict* ample choice whose
  edge lands back on the path is repaired on the spot by expanding
  the deferred moves too (see ``Explorer._explore_reduced``).

On top of ample sets the explorer runs Godefroid-style **sleep sets**
(moves already explored from an earlier branch and independent of the
path since stay asleep) with the state-caching wake-up rule, and
**transition chaining**: while the reduction leaves exactly one move
to explore, successors are executed without storing the intermediate
states (violations are still checked at every step).

**Symmetry reduction.**  :func:`canonical_reduced` replaces the
positional state keyer for reduced runs: per-process entries are
projected onto the *live* locals of their PC, a dead scalar written
as None like an unset slot (dead scalars cannot influence any future
behaviour — but slots holding heap references are always kept, since
they pin objects in the bounded table and their loss must stay
visible to leak detection), interchangeable
process replicas (identical span-free IR) are sorted into a canonical
order, and heap references are renumbered along the canonical
traversal.  Two states that differ only in dead data, replica
permutation, or allocation order then collapse into one key.

Soundness is guarded empirically by the reduction-differential suite
(``tests/test_reduction_differential.py``): plain and reduced
exploration must agree on verdict and violation kinds, and every
reduced counterexample must replay on the unreduced AST walker.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.ir import nodes as ir
from repro.ir.liveness import liveness
from repro.runtime.interp import Status
from repro.runtime.machine import (
    ExternalAccept,
    ExternalDeliver,
    Machine,
    Rendezvous,
)
from repro.runtime.values import Ref, UNSET
from repro.verify.state import HeapWalk, canonical_state, interned


@dataclass(frozen=True)
class ReduceOptions:
    """Which reductions a run asked for (``espc verify --reduce=...``)."""

    por: bool = False
    sym: bool = False

    def __bool__(self) -> bool:
        return self.por or self.sym

    @property
    def label(self) -> str:
        modes = [m for m, on in (("por", self.por), ("sym", self.sym)) if on]
        return ",".join(modes) if modes else "none"


def parse_reduce(spec) -> ReduceOptions:
    """Parse ``--reduce`` syntax: ``"por"``, ``"sym"``, ``"por,sym"``,
    ``"none"``/``None``/empty for no reduction."""
    if spec is None:
        return ReduceOptions()
    if isinstance(spec, ReduceOptions):
        return spec
    por = sym = False
    for token in str(spec).split(","):
        token = token.strip()
        if not token or token == "none":
            continue
        if token == "por":
            por = True
        elif token == "sym":
            sym = True
        else:
            raise ValueError(
                f"unknown reduction mode {token!r} (expected 'por', 'sym', "
                "'por,sym', or 'none')"
            )
    return ReduceOptions(por=por, sym=sym)


# ---------------------------------------------------------------------------
# Static analysis over the lowered IR
# ---------------------------------------------------------------------------


def _signature(obj):
    """A hashable, span-free structural signature of an IR fragment.

    Two processes with equal signatures execute identical code over
    identical channels — the definition of interchangeable replicas.
    Spans are skipped so that source position never breaks symmetry.
    """
    if isinstance(obj, (list, tuple)):
        return tuple(_signature(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _signature(v)) for k, v in obj.items()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            _signature(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name != "span"
        )
    if isinstance(obj, (int, float, bool, str, bytes, frozenset,
                        type(None))):
        return obj
    return repr(obj)


class StaticAnalysis:
    """Per-program facts the reducer needs, computed once:

    * the static reader/writer pids of every channel (``in``/``out``
      instructions and ``alt`` arms);
    * per-process liveness (live-in variable sets per PC);
    * replica classes: groups of >= 2 processes with identical
      span-free IR;
    * whether the machine's bounded heap-object table couples all
      processes (any allocation can trip the shared table).
    """

    def __init__(self, machine: Machine):
        program = machine.program
        self.readers_of: dict[str, frozenset[int]] = {}
        self.writers_of: dict[str, frozenset[int]] = {}
        readers: dict[str, set[int]] = {}
        writers: dict[str, set[int]] = {}
        for proc in program.processes:
            for instr in proc.instrs:
                if isinstance(instr, ir.In):
                    readers.setdefault(instr.channel, set()).add(proc.pid)
                elif isinstance(instr, ir.Out):
                    writers.setdefault(instr.channel, set()).add(proc.pid)
                elif isinstance(instr, ir.Alt):
                    for arm in instr.arms:
                        target = readers if arm.kind == "in" else writers
                        target.setdefault(arm.channel, set()).add(proc.pid)
        self.readers_of = {c: frozenset(s) for c, s in readers.items()}
        self.writers_of = {c: frozenset(s) for c, s in writers.items()}

        # Per process and pc, the frame slots whose locals are dead
        # there (past the last instruction, every slot).
        self.dead_slots: dict[int, list[tuple[int, ...]]] = {}
        for proc in program.processes:
            self.dead_slots[proc.pid] = [
                tuple(slot for name, slot in proc.canon_order
                      if name not in live)
                for live in liveness(proc)[0]
            ] + [tuple(range(proc.nslots))]

        # A stateful external bridge sequences all operations on its
        # channel: deliveries/accepts consume shared bridge state, so
        # they never commute with each other.
        self.stateful_external: frozenset[str] = frozenset(
            name for name, bridge in machine.externals.items()
            if bridge.snapshot() is not None
        )

        self.heap_coupled = machine.max_objects is not None

        by_sig: dict[tuple, list[int]] = {}
        for proc in program.processes:
            sig = _signature((proc.instrs, proc.canon_order))
            by_sig.setdefault(sig, []).append(proc.pid)
        # pid positions of each replica group, in pid order; singleton
        # groups are dropped (nothing to permute).
        self.replica_groups: tuple[tuple[int, ...], ...] = tuple(
            tuple(pids) for pids in by_sig.values() if len(pids) > 1
        )
        self.replica_pids = frozenset(
            pid for group in self.replica_groups for pid in group)


# ---------------------------------------------------------------------------
# Symmetry-canonical state encoding
# ---------------------------------------------------------------------------


def _local_sig(value, heap_objects, remap):
    """Serialize a value with *local* heap renumbering, inlining each
    reachable object: a renaming-invariant sort key for replica
    members (the global renumbering depends on the final process
    order, so it cannot be used to decide that order)."""
    if isinstance(value, tuple):
        return tuple(_local_sig(v, heap_objects, remap) for v in value)
    if not isinstance(value, Ref):
        return value
    oid = value.oid
    if oid in remap:
        return ("ref", remap[oid])
    index = len(remap)
    remap[oid] = index
    obj = heap_objects.get(oid)
    if obj is None or not obj.live:
        return ("dangling-ref", index)
    return ("obj", index, obj.kind, obj.tag, obj.mutable, obj.refcount,
            tuple(_local_sig(v, heap_objects, remap) for v in obj.data))


def _replica_key(ps, frame, heap_objects):
    """The sort key of a replica: its pc, status, set slots as (slot,
    value) pairs (slot order is local-name order) and block, with
    objects inlined by :func:`_local_sig`."""
    b = ps.block
    block = None
    if b is not None:
        block = (b.kind, b.channel, b.port_index, b.fused, b.values,
                 tuple(e.index for e in b.arms))
    slots = tuple((slot, v) for slot, v in enumerate(frame)
                  if v is not UNSET and v is not None)
    return _local_sig((ps.pc, ps.status.value, slots, block), heap_objects,
                      {})


def canonical_reduced(machine: Machine, analysis: StaticAnalysis,
                      counters: dict | None = None) -> tuple:
    """The symmetry-canonical encoding of the machine's global state:
    live-projected per-process entries, replica classes sorted, heap
    references renumbered in canonical traversal order.  Same shape as
    :func:`repro.verify.state.canonical_state` (``(procs, heap, ext)``),
    so the collapse store and :class:`StateKeyer` consume it unchanged.

    A process whose record the transition cache interned is projected
    once per local state: its :class:`~repro.verify.state.Interned`
    keeps ``(live entry, blanking changed it, replica key)`` as
    ``sym``.
    """
    heap_objects = machine.heap.objects
    dead_slots = analysis.dead_slots
    processes = machine.processes
    changed = False

    # Pass 1: each frame with its dead scalars blanked to None, or an
    # interned record's projection (in ``kept``, made on first use; its
    # frame is then None).  Raw references stay in place: renumbering
    # waits for the replica order.
    frames = []
    kept = None
    for ps in processes:
        local = interned(ps)
        if local is not None and local.sym is not None:
            if kept is None:
                kept = [None] * len(processes)
            kept[ps.pid] = local.sym
            changed = changed or local.sym[1]
            frames.append(None)
            continue
        frame = ps.frame
        dead = dead_slots[ps.pid]
        for slot in dead[min(ps.pc, len(dead) - 1)]:
            value = frame[slot]
            # Dead scalars cannot influence the future; dead *refs*
            # still occupy the bounded object table, so they stay.
            if value is not UNSET and value.__class__ is not Ref:
                if frame is ps.frame:
                    frame = list(frame)
                frame[slot] = None
                changed = True
        if local is not None:
            # Ref-free, so its entry takes no slot of pass 3's walk.
            if kept is None:
                kept = [None] * len(processes)
            kept[ps.pid] = local.sym = (
                HeapWalk(heap_objects).process(ps, frame),
                frame is not ps.frame,
                _replica_key(ps, frame, heap_objects)
                if ps.pid in analysis.replica_pids else None)
            frames.append(None)
            continue
        frames.append(frame)

    # Pass 2: sort replica-class members by a renaming-invariant key.
    order = list(range(len(processes)))
    for group in analysis.replica_groups:
        ranked = sorted(group, key=lambda pid: (
            kept[pid][2] if kept is not None and kept[pid] is not None
            else _replica_key(processes[pid], frames[pid], heap_objects)))
        if tuple(ranked) != group:
            changed = True
        for position, pid in zip(group, ranked):
            order[position] = pid

    # Pass 3: global heap renumbering along the canonical order; leaked
    # objects follow exactly as the positional keyer records them, so
    # leaks still grow the state vector and never close a cycle.
    walk = HeapWalk(heap_objects)
    if kept is None:
        procs = [walk.process(processes[pid], frames[pid]) for pid in order]
    else:
        procs = [walk.process(processes[pid], frames[pid])
                 if kept[pid] is None else kept[pid][0] for pid in order]
    walk.leaks()
    if counters is not None and changed:
        counters["sym_canonicalized"] = counters.get("sym_canonicalized",
                                                     0) + 1
    return (tuple(procs), tuple(walk.entries), machine.external_state(),
            changed)


# ---------------------------------------------------------------------------
# The reducer: move identity, independence, ample selection
# ---------------------------------------------------------------------------


class Reducer:
    """The per-run reduction state of the reduced search
    (:class:`repro.verify.explorer.Explorer`, whatever its visited
    store).

    ``ample_ok`` reports whether *strict* ample sets are sound for
    this machine (C2: no invariants, no bounded heap table); chaining
    through forced singletons is sound regardless, so ``por`` always
    enables it.  ``sym`` reports whether the symmetry keyer is in use
    (user invariants may inspect dead locals or distinguish replicas,
    so invariants disable it)."""

    def __init__(self, machine: Machine, options: ReduceOptions,
                 has_invariants: bool = False):
        if not isinstance(machine, Machine):
            raise ValueError(
                "state-space reduction requires a plain Machine "
                f"(got {type(machine).__name__})"
            )
        self.options = options
        self.analysis = StaticAnalysis(machine)
        self.ample_ok = (options.por and not has_invariants
                         and not self.analysis.heap_coupled)
        self.chain_ok = options.por
        self.sleep_ok = options.por
        self.sym = options.sym and not has_invariants
        self.last_changed = False
        # The reduced search's counters (stats["reduction"]); the
        # symmetry keyer adds ``sym_canonicalized``.
        self.counters: dict[str, int] = dict.fromkeys(
            ("ample_hits", "c3_repairs", "c3_forced", "chained",
             "sleep_skips", "sym_collisions"), 0)
        # What a process waits on (or that it is done) -> a small id.
        self._point_ids: dict = {}
        # (blocking configuration, move pids) -> C1 candidates.
        self._candidates: dict[tuple, list] = {}

    # -- canonical keys -----------------------------------------------------------

    def canonical(self, machine: Machine) -> tuple:
        """The visited-store key for the machine's current state."""
        if not self.sym:
            self.last_changed = False
            return canonical_state(machine)
        procs, heap, ext, changed = canonical_reduced(
            machine, self.analysis, self.counters
        )
        self.last_changed = changed
        return (procs, heap, ext)

    # -- move identity / independence ---------------------------------------------

    def move_info(self, move) -> tuple:
        """``(identity, pids, stateful-external channel or None)`` —
        everything independence needs, precomputed once per move."""
        channel = move.channel
        stateful = channel if channel in self.analysis.stateful_external \
            else None
        if isinstance(move, Rendezvous):
            mid = ("r", channel, move.sender_pid, move.sender_arm,
                   move.receiver_pid, move.receiver_arm)
            pids = (move.sender_pid, move.receiver_pid)
        elif isinstance(move, ExternalDeliver):
            mid = ("d", channel, move.entry_name, repr(move.args),
                   move.receiver_pid, move.receiver_arm)
            pids = (move.receiver_pid,)
        elif isinstance(move, ExternalAccept):
            mid = ("a", channel, move.sender_pid, move.sender_arm)
            pids = (move.sender_pid,)
        else:  # unknown move kind: depends on everything (never reduced)
            return (("?", repr(move)), (), "?")
        return (mid, pids, stateful)

    @staticmethod
    def independent(a: tuple, b: tuple) -> bool:
        """Two move infos commute iff their process sets are disjoint
        and they do not share a stateful external bridge."""
        if a[2] == "?" or b[2] == "?":
            return False
        pa, pb = a[1], b[1]
        for p in pa:
            if p in pb:
                return False
        if a[2] is not None and a[2] == b[2]:
            return False
        return True

    # -- ample selection ----------------------------------------------------------

    def _blocked_watch(self, ps):
        """The (kind, channel) pairs a blocked process is waiting on."""
        b = ps.block
        if b is None:
            return ()
        if b.kind in ("in", "out"):
            return ((b.kind, b.channel),)
        return tuple((e.arm.kind, e.arm.channel) for e in b.arms)

    def _configuration(self, processes) -> tuple:
        """The blocking configuration: per process, the id of what it
        waits on, or of its being done.  The C1 closures depend on
        nothing else, and an interned record keeps its id (``point``)."""
        point_ids = self._point_ids
        config = []
        for ps in processes:
            local = interned(ps)
            if local is not None and local.point is not None:
                config.append(local.point)
                continue
            point = (None if ps.status is Status.DONE
                     else self._blocked_watch(ps))
            point_id = point_ids.get(point)
            if point_id is None:
                point_id = point_ids[point] = len(point_ids)
            if local is not None:
                local.point = point_id
            config.append(point_id)
        return tuple(config)

    def ample_candidates(self, machine: Machine, moves, infos) -> list:
        """C1 candidate ample sets: for each process with an enabled
        move, the dependence closure of that process — every channel a
        member is blocked on drags in the channel's static peers
        (DONE processes excepted; stateful external channels drag in
        *all* their static users).  Returns move-index tuples; the
        full set is always a valid fallback.  The candidates depend
        only on the blocking configuration and the moves' processes,
        so they are cached by the two (the list must not be changed)."""
        if not self.ample_ok or any(info[2] == "?" for info in infos):
            return [tuple(range(len(moves)))]
        processes = machine.processes
        key = (self._configuration(processes),
               tuple([info[1] for info in infos]))
        candidates = self._candidates.get(key)
        if candidates is None:
            candidates = self._candidates[key] = self._closures(
                processes, infos)
        return candidates

    def _closures(self, processes, infos) -> list:
        analysis = self.analysis
        readers_of = analysis.readers_of
        writers_of = analysis.writers_of
        stateful = analysis.stateful_external
        full = tuple(range(len(infos)))
        candidates: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        starts = sorted({p for info in infos for p in info[1]})
        for start in starts:
            members = {start}
            frontier = [start]
            while frontier:
                pid = frontier.pop()
                for kind, channel in self._blocked_watch(processes[pid]):
                    peers = (writers_of.get(channel, frozenset())
                             if kind == "in"
                             else readers_of.get(channel, frozenset()))
                    if channel in stateful:
                        peers = (peers
                                 | readers_of.get(channel, frozenset())
                                 | writers_of.get(channel, frozenset()))
                    for peer in peers:
                        if peer in members:
                            continue
                        if processes[peer].status is Status.DONE:
                            continue
                        members.add(peer)
                        frontier.append(peer)
            selection = tuple(
                i for i, info in enumerate(infos)
                if any(p in members for p in info[1])
            )
            if selection and selection not in seen:
                seen.add(selection)
                candidates.append(selection)
        if full not in seen:
            candidates.append(full)
        return candidates

    def select_ample(self, machine: Machine, moves, infos,
                     sleep_ids) -> tuple[tuple[int, ...], list[int]]:
        """Choose the ample set to expand: the candidate minimizing
        (moves left after sleep filtering, closure size).  Returns
        ``(ample set, indices to explore)``."""
        candidates = self.ample_candidates(machine, moves, infos)
        if len(candidates) == 1:
            selection = candidates[0]
        else:
            selection = min(
                candidates,
                key=lambda c: (
                    sum(1 for i in c if infos[i][0] not in sleep_ids),
                    len(c),
                ),
            )
        explore = [i for i in selection if infos[i][0] not in sleep_ids]
        return selection, explore
