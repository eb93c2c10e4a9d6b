"""Exhaustive state-space exploration (the paper's SPIN exhaustive
mode, §5.1).

Processes are deterministic between blocking points and share no
state, so the only interleaving that matters is the choice of the next
synchronisation — a sound partial-order reduction that is exactly why
ESP models stay small enough to verify (§5.3).  A *transition* is:
apply one enabled move, then run every runnable process to its next
block.

The explorer is driven through :meth:`Machine.snapshot`/``restore``
(the same interpreter that executes firmware — one program, both
targets, Figure 4).  The hot path stays free of string formatting:
exploration records violations as compact move-index *paths*, and the
human-readable traces are rebuilt afterwards by deterministic replay
(:func:`repro.verify.counterexample.replay_path`).  Visited
states live in a SPIN-style collapse-compressed store
(:mod:`repro.verify.collapse`), which is exact: state and transition
counts are identical to a plain set of canonical states.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ESPError, ESPRuntimeError
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


# A violation found during exploration, before its trace is rebuilt:
# (kind, message, depth, move-index path).
_Pending = tuple[str, str, int, tuple[int, ...]]


class Explorer:
    """Exhaustive DFS over the rendezvous-level state space."""

    def __init__(
        self,
        machine: Machine,
        invariants: list[Invariant] | None = None,
        check_deadlock: bool = True,
        quiescence_ok: bool = True,
        max_states: int | None = None,
        max_depth: int | None = None,
        stop_at_first: bool = True,
        # "collapse", "plain", a ready store instance, or a factory
        # ``machine -> store`` (see repro.verify.collapse.make_visited_store;
        # an instance must be fresh — explore() fills its visited set).
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
        if self.reduce:
            return self._explore_reduced()
        return self._explore_plain()

    def _explore_plain(self) -> ExploreResult:
        machine = self.machine
        result = ExploreResult()
        started = time.perf_counter()
        # Pre-settle snapshot: the replay origin for counterexamples.
        initial_snapshot = machine.snapshot()
        pendings: list[_Pending] = []
        store = make_visited_store(machine, self.store_kind)

        if not self._settle(pendings, (), 0):
            self._finish(result, store, initial_snapshot, pendings, started)
            return result

        _, token = store.add_current(machine)
        result.states = 1
        max_states = self.max_states
        root = machine.snapshot()
        if token is not None:
            token[0] = root  # bind the intern token to its snapshot
        stack = [(root, 0, (), token)]

        while stack:
            if self.stop_at_first and pendings:
                break
            snapshot, depth, path, token = stack.pop()
            machine.restore(snapshot)
            moves = machine.enabled_moves()
            if not moves:
                self._check_deadlock(pendings, path, depth)
                continue
            if self.max_depth is not None and depth >= self.max_depth:
                result.complete = False
                continue
            for index, move in enumerate(moves):
                machine.restore(snapshot)
                next_path = path + (index,)
                try:
                    machine.apply(move)
                except ESPError as err:
                    result.transitions += 1
                    pendings.append(
                        (violation_kind(err), err.format(), depth + 1,
                         next_path)
                    )
                    continue
                result.transitions += 1
                if not self._settle(pendings, next_path, depth + 1):
                    continue
                if max_states is not None and result.states >= max_states:
                    # At the bound only a new state is refused, and only
                    # a refusal leaves the search incomplete.
                    if store.contains(canonical_state(machine)):
                        continue
                    result.complete = False
                    stack.clear()
                    break
                is_new, child_token = store.add_current(machine, token)
                if not is_new:
                    continue
                result.states += 1
                result.max_depth = max(result.max_depth, depth + 1)
                child_snapshot = machine.snapshot()
                if child_token is not None:
                    child_token[0] = child_snapshot
                stack.append((child_snapshot, depth + 1, next_path,
                              child_token))

        self._finish(result, store, initial_snapshot, pendings, started)
        return result

    # -- reduced exploration ------------------------------------------------------

    def _explore_reduced(self) -> ExploreResult:
        """DFS over the reduced state graph: ample sets (C1–C3), sleep
        sets with the state-caching wake-up rule, and transition
        chaining, keyed by the symmetry canonicalizer when ``sym`` is
        on.  See :mod:`repro.verify.reduction` for the soundness
        conditions; violations carry full move-index paths, so their
        counterexamples replay on an unreduced machine exactly like the
        plain explorer's."""
        machine = self.machine
        result = ExploreResult()
        started = time.perf_counter()
        initial_snapshot = machine.snapshot()
        pendings: list[_Pending] = []
        reducer = Reducer(machine, self.reduce,
                          has_invariants=bool(self.invariants))
        store = make_visited_store(machine, self.store_kind)
        counters = {"ample_hits": 0, "c3_repairs": 0, "c3_forced": 0,
                    "chained": 0, "sleep_skips": 0, "sym_collisions": 0}
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

        def chase(sleep, path):
            """Advance through states where reduction leaves exactly one
            move to explore, without storing the intermediates.  The
            machine must be settled.  Returns ``(key, changed, sleep,
            path, intermediates, forced)`` — ``key`` is None when the
            branch ended in a violation, ``forced`` is True when a
            strict chain step closed a cycle onto the DFS path and the
            endpoint must therefore be expanded in full (C3)."""
            chain_keys = set()
            inter = []
            while True:
                key = reducer.canonical(machine)
                changed = reducer.last_changed
                if (key in chain_keys or key in in_stack
                        or store.contains(key)):
                    return key, changed, sleep, path, inter, False
                if (self.max_depth is not None
                        and len(path) >= self.max_depth):
                    return key, changed, sleep, path, inter, False
                moves = machine.enabled_moves()
                if not moves:
                    return key, changed, sleep, path, inter, False
                infos = [reducer.move_info(m) for m in moves]
                sleep_ids = {t[0] for t in sleep}
                selection, explore = reducer.select_ample(
                    machine, moves, infos, sleep_ids
                )
                if not reducer.chain_ok or len(explore) != 1:
                    return key, changed, sleep, path, inter, False
                index = explore[0]
                info = infos[index]
                strict = len(selection) < len(moves)
                snap = machine.snapshot() if strict else None
                result.transitions += 1
                result.transitions_pruned += len(moves) - 1
                counters["chained"] += 1
                next_path = path + (index,)
                try:
                    machine.apply(moves[index])
                except ESPError as err:
                    pendings.append((violation_kind(err), err.format(),
                                     len(next_path), next_path))
                    return None, False, sleep, path, inter, False
                if not self._settle(pendings, next_path, len(next_path)):
                    return None, False, sleep, path, inter, False
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
                        return key, changed, sleep, path, inter, True
                chain_keys.add(key)
                inter.append(key)
                path = next_path
                sleep = frozenset(
                    t for t in sleep if reducer.independent(t, info)
                )

        nodes: list[dict] = []

        def push(key, changed, sleep, path, inter, forced, is_new):
            if is_new:
                result.states += 1
                result.max_depth = max(result.max_depth, len(path))
            if sleep:
                sleep_of[key] = sleep
            stack_add(key)
            for k in inter:
                stack_add(k)
            nodes.append({
                "key": key, "snap": machine.snapshot(), "sleep": sleep,
                "path": path, "inter": inter, "forced": forced,
                "pending": None, "done": [], "attempted": 0,
            })

        if not self._settle(pendings, (), 0):
            self._finish(result, store, initial_snapshot, pendings, started)
            self._attach_reduction_stats(result, reducer, counters)
            return result

        key0, changed0, sleep0, path0, inter0, forced0 = chase(frozenset(), ())
        if key0 is not None:
            store.add(key0)
            push(key0, changed0, sleep0, path0, inter0, forced0, True)

        while nodes:
            if self.stop_at_first and pendings:
                break
            node = nodes[-1]
            if node["pending"] is None:
                # First visit: select the ample set at this node.
                machine.restore(node["snap"])
                moves = machine.enabled_moves()
                if not moves:
                    self._check_deadlock(pendings, node["path"],
                                         len(node["path"]))
                    node["pending"] = []
                    node["moves"] = []
                    continue
                if (self.max_depth is not None
                        and len(node["path"]) >= self.max_depth):
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
            next_path = node["path"] + (index,)
            result.transitions += 1
            try:
                machine.apply(node["moves"][index])
            except ESPError as err:
                pendings.append((violation_kind(err), err.format(),
                                 len(next_path), next_path))
                node["done"].append(info)
                continue
            if not self._settle(pendings, next_path, len(next_path)):
                node["done"].append(info)
                continue
            base_sleep = frozenset(
                t for t in set(node["sleep"]) | set(node["done"])
                if reducer.independent(t, info)
            ) if reducer.sleep_ok else frozenset()
            node["done"].append(info)
            key, changed, child_sleep, child_path, inter, forced = chase(
                base_sleep, next_path
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
                push(key, changed, newsleep, child_path, inter, forced,
                     False)
                continue
            if (self.max_states is not None
                    and result.states >= self.max_states):
                # The first new state beyond the bound is refused; only
                # that leaves the search incomplete.
                result.complete = False
                break
            store.add(key)
            push(key, changed, child_sleep, child_path, inter, forced, True)

        self._finish(result, store, initial_snapshot, pendings, started)
        self._attach_reduction_stats(result, reducer, counters)
        return result

    def _attach_reduction_stats(self, result: ExploreResult, reducer,
                                counters: dict) -> None:
        result.stats["reduction"] = {
            "modes": self.reduce.label,
            "ample_ok": reducer.ample_ok,
            "sym": reducer.sym,
            "transitions_pruned": result.transitions_pruned,
            **counters,
            **reducer.counters,
        }

    # -- helpers ------------------------------------------------------------------

    def _settle(self, pendings: list[_Pending], path: tuple[int, ...],
                depth: int) -> bool:
        """Run all runnable processes to their blocks, converting
        interpreter exceptions and invariant failures into pending
        violations.  Returns False when this branch ended in one."""
        try:
            self.machine.run_ready()
        except ESPError as err:
            pendings.append((violation_kind(err), err.format(), depth, path))
            return False
        for invariant in self.invariants:
            message = invariant(self.machine)
            if message is not None:
                pendings.append(("invariant", message, depth, path))
                return False
        return True

    def _check_deadlock(self, pendings: list[_Pending],
                        path: tuple[int, ...], depth: int) -> None:
        if not self.check_deadlock:
            return
        machine = self.machine
        if not machine.blocked_processes():
            return  # all done: normal termination
        if self.quiescence_ok and is_quiescent(machine):
            return
        names = machine.blocked_summary()
        pendings.append(
            ("deadlock", f"no enabled move; blocked: {names}", depth, path)
        )

    def _finish(self, result: ExploreResult, store, initial_snapshot,
                pendings: list[_Pending], started: float) -> None:
        """Rebuild human-readable traces for the pending violations (in
        discovery order) and attach the store/interpreter statistics."""
        machine = self.machine
        for kind, message, depth, path in pendings:
            machine.restore(initial_snapshot)
            trace, _err = replay_path(machine, path)
            result.violations.append(Violation(kind, message, trace, depth))
        if result.violations:
            result.complete = False
        result.memory_bytes = store.memory_bytes()
        result.stats = self._collect_stats(store)
        result.elapsed_seconds = time.perf_counter() - started

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


def violation_kind(err: ESPError) -> str:
    """The violation category of an interpreter exception."""
    from repro.errors import AssertionFailure, MemorySafetyError

    if isinstance(err, AssertionFailure):
        return "assertion"
    if isinstance(err, MemorySafetyError):
        return "memory"
    if isinstance(err, ESPRuntimeError):
        return "runtime"
    return "runtime"


def _violation_from(err: ESPError, trace: list[str], depth: int) -> Violation:
    return Violation(violation_kind(err), err.format(), list(trace), depth)
