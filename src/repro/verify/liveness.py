"""Liveness-flavoured checking (§5.1's "more complex properties, like
absence of starvation, can be specified using Linear Temporal Logic").

Full LTL needs Büchi automata; for the properties the paper actually
names, branching-time reachability over the explored graph suffices
and keeps the implementation small:

* **always-eventually (AG EF goal)** — from *every* reachable state, a
  goal state remains reachable.  Its violation is a reachable state
  from which the goal can never happen again: exactly starvation
  (a process that can never take a step) or livelock (a system that
  can never deliver again).
* **inevitability under fairness (no goal-free cycles)** — a cycle in
  the reachable graph touching no goal state is an execution that runs
  forever without the goal; with the (strong-fairness) assumption that
  enabled synchronisations eventually happen, its absence means the
  goal always eventually occurs.

Both operate on the full reachable graph, so they are exhaustive like
the safety explorer, and both return witness traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.runtime.machine import Machine
from repro.verify.counterexample import replay_path
from repro.verify.explorer import step
from repro.verify.state import canonical_state


@dataclass
class LivenessResult:
    """Result of a liveness check over the reachable graph."""

    holds: bool
    states: int = 0
    goal_states: int = 0
    elapsed_seconds: float = 0.0
    complete: bool = True
    witness: list[str] = field(default_factory=list)  # trace to a bad state
    reason: str = ""

    def summary(self) -> str:
        verdict = "holds" if self.holds else f"violated ({self.reason})"
        return (
            f"{self.states} states ({self.goal_states} goal), "
            f"{self.elapsed_seconds:.3f}s [{verdict}]"
        )


class _Graph:
    """The explored state graph: nodes are canonical states.  Each
    node keeps its depth and the parent link ``(parent node, move
    index)`` it was first reached by; a witness trace is rebuilt from
    those links by replay, only for the node it ends at."""

    def __init__(self, machine: Machine):
        self.machine = machine
        # Pre-settle snapshot: the replay origin for witnesses.
        self.initial = machine.snapshot()
        self.index: dict = {}
        self.succs: list[list[int]] = []
        self.goal: list[bool] = []
        self.parent: list[tuple[int, int] | None] = []
        self.depth: list[int] = []

    def add(self, key, is_goal: bool,
            parent: tuple[int, int] | None) -> tuple[int, bool]:
        if key in self.index:
            return self.index[key], False
        node = len(self.succs)
        self.index[key] = node
        self.succs.append([])
        self.goal.append(is_goal)
        self.parent.append(parent)
        self.depth.append(0 if parent is None else self.depth[parent[0]] + 1)
        return node, True

    def witness(self, node: int) -> list[str]:
        """The move descriptions of the path that first reached
        ``node``, by replay from the initial state."""
        path = []
        while self.parent[node] is not None:
            node, index = self.parent[node]
            path.append(index)
        path.reverse()
        self.machine.restore(self.initial)
        trace, _ = replay_path(self.machine, path)
        return trace


def _build_graph(machine: Machine, goal: Callable[[Machine], bool],
                 max_states: int) -> tuple[_Graph, bool]:
    graph = _Graph(machine)
    # Safety violations are the safety explorer's business: a branch
    # that ends in one is terminal here.
    settled = step(machine, None, ()) is None
    root, _ = graph.add(canonical_state(machine), goal(machine), None)
    stack = [(machine.snapshot(), root)] if settled else []
    complete = True
    while stack:
        snapshot, node = stack.pop()
        machine.restore(snapshot)
        for index, move in enumerate(machine.enabled_moves()):
            machine.restore(snapshot)
            if step(machine, move, ()) is not None:
                continue
            key = canonical_state(machine)
            if key not in graph.index and len(graph.succs) >= max_states:
                # The first new state beyond the bound is refused; only
                # that leaves the graph incomplete.
                complete = False
                stack.clear()
                break
            succ, new = graph.add(key, goal(machine), (node, index))
            graph.succs[node].append(succ)
            if new:
                stack.append((machine.snapshot(), succ))
    return graph, complete


def check_always_eventually(
    machine: Machine,
    goal: Callable[[Machine], bool],
    max_states: int = 100_000,
) -> LivenessResult:
    """AG EF goal: from every reachable state the goal stays reachable.

    The violation witness is a path to a state from which no goal
    state can ever be reached again."""
    started = time.perf_counter()
    graph, complete = _build_graph(machine, goal, max_states)
    n = len(graph.succs)
    # Backward reachability from goal states.
    preds: list[list[int]] = [[] for _ in range(n)]
    for node, succs in enumerate(graph.succs):
        for succ in succs:
            preds[succ].append(node)
    can_reach_goal = [False] * n
    worklist = [i for i in range(n) if graph.goal[i]]
    for i in worklist:
        can_reach_goal[i] = True
    while worklist:
        node = worklist.pop()
        for pred in preds[node]:
            if not can_reach_goal[pred]:
                can_reach_goal[pred] = True
                worklist.append(pred)
    result = LivenessResult(
        holds=all(can_reach_goal),
        states=n,
        goal_states=sum(graph.goal),
        complete=complete,
        elapsed_seconds=time.perf_counter() - started,
    )
    if not result.holds:
        bad = min(
            (i for i in range(n) if not can_reach_goal[i]),
            key=lambda i: graph.depth[i],
        )
        result.witness = graph.witness(bad)
        result.reason = "a reachable state can never reach the goal again"
    return result


def check_no_goal_free_cycles(
    machine: Machine,
    goal: Callable[[Machine], bool],
    max_states: int = 100_000,
) -> LivenessResult:
    """Inevitability: no cycle (including self-loops) avoids the goal.

    A goal-free cycle is an infinite execution on which the goal never
    occurs — e.g. a process that can be bypassed forever (starvation).
    """
    started = time.perf_counter()
    graph, complete = _build_graph(machine, goal, max_states)
    n = len(graph.succs)
    # Cycle detection restricted to non-goal nodes (iterative DFS,
    # colouring: 0 unseen, 1 on stack, 2 done).
    colour = [0] * n
    cycle_node = -1
    for start in range(n):
        if colour[start] != 0 or graph.goal[start]:
            continue
        stack = [(start, iter(graph.succs[start]))]
        colour[start] = 1
        while stack and cycle_node < 0:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if graph.goal[succ]:
                    continue
                if colour[succ] == 1:
                    cycle_node = succ
                    break
                if colour[succ] == 0:
                    colour[succ] = 1
                    stack.append((succ, iter(graph.succs[succ])))
                    advanced = True
                    break
            else:
                colour[node] = 2
                stack.pop()
                continue
            if advanced:
                continue
        if cycle_node >= 0:
            break
    result = LivenessResult(
        holds=cycle_node < 0,
        states=n,
        goal_states=sum(graph.goal),
        complete=complete,
        elapsed_seconds=time.perf_counter() - started,
    )
    if cycle_node >= 0:
        result.witness = graph.witness(cycle_node)
        result.reason = "an infinite execution avoids the goal (goal-free cycle)"
    return result


def process_runs(process_name: str) -> Callable[[Machine], bool]:
    """Goal predicate: the named process just became runnable (it took
    part in the last synchronisation) — the building block for
    starvation checks."""

    def goal(machine: Machine) -> bool:
        from repro.runtime.interp import Status

        for ps in machine.processes:
            if ps.proc.name == process_name:
                return ps.status is not Status.BLOCKED or ps.steps > 0
        return False

    return goal
