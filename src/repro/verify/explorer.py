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
from repro.runtime.machine import Machine
from repro.verify.collapse import make_visited_store
from repro.verify.counterexample import replay_path
from repro.verify.properties import Invariant, Violation
from repro.verify.reduction import Reducer, parse_reduce
from repro.verify.state import canonical_state, is_quiescent


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


def step(machine, move, invariants) -> Violation | None:
    """One transition: apply ``move`` (None applies nothing, which
    settles the initial state), run every runnable process to its next
    block, and check the invariants.  Returns the violation that ended
    the branch, with its trace and depth left for the caller to fill,
    or None."""
    try:
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
        # Pre-settle snapshot: the replay origin for counterexamples.
        initial_snapshot = machine.snapshot()
        store = make_visited_store(machine, self.store_kind)
        reducer = (Reducer(machine, self.reduce,
                           has_invariants=bool(self.invariants))
                   if self.reduce else None)
        # Violations in discovery order, each with its move-index path.
        self._found: list[tuple[Violation, tuple[int, ...]]] = []
        try:
            found = step(machine, None, self.invariants)
            if found is not None:
                self._record(found, 0, None)
            elif reducer is None:
                self._explore_plain(result, store)
            else:
                self._explore_reduced(result, store, reducer)
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

    def _explore_plain(self, result: ExploreResult, store) -> None:
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
                found = step(machine, move, invariants)
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
                         reducer: Reducer) -> None:
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
                found = step(machine, moves[index], invariants)
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
            found = step(machine, node["moves"][index], invariants)
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
