"""The verifier's transition cache replays exactly what it replaces.

:class:`repro.verify.explorer.TransitionCache` serves a transition the
search already ran from the same local states without running any ESP
code.  The property under test is that this is invisible: random walks
apply every move twice, through the cache on one machine and through
the plain :func:`step` on a twin, and after each move the two machines
must agree on the canonical state, the snapshot records, the
interpreter and heap counters, every process's ``steps``, the bridge
calls and the printed output.  Transitions that print, allocate or
raise must never be served from the cache.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.runtime.machine import Machine
from repro.verify.bitstate import BitstateExplorer
from repro.verify.environment import (
    ChoiceWriter,
    SinkReader,
    default_verification_bridges,
)
from repro.verify.explorer import Explorer, TransitionCache, step
from repro.verify.state import canonical_state
from repro.vmmc.retransmission import buggy_source, protocol_source
from tests.strategies import esp_programs


class LoggedChoiceWriter(ChoiceWriter):
    def __init__(self, entries, choices, log):
        super().__init__(entries, choices)
        self.log = log

    def take(self, entry_name, args=None):
        self.log.append(("take", entry_name))
        return super().take(entry_name)


class LoggedSink(SinkReader):
    def __init__(self, entries, log):
        super().__init__(entries)
        self.log = log

    def accept(self, entry_name, args):
        self.log.append(("accept", entry_name, args))
        super().accept(entry_name, args)


def retransmission(window: int, messages: int):
    program = compile_source(protocol_source(window, messages))

    def build():
        log = []
        externals = {
            "timeoutC": LoggedChoiceWriter(["Timeout"], [("Timeout", (0,))],
                                           log),
            "allDoneC": LoggedSink(["Done"], log),
            "dropC": LoggedSink(["Drop"], log),
        }
        return Machine(program, externals=externals), log

    return build


def relay_pipeline(stages: int, messages: int) -> str:
    """``source -> relay0 -> ... -> sink`` over int channels."""
    lines = [f"channel c{i}: int" for i in range(stages + 1)]
    lines += ["process source {"]
    lines += [f"    out( c0, {m});" for m in range(messages)]
    lines += ["}"]
    for i in range(stages):
        lines += [f"process relay{i} {{", "    while (true) {",
                  f"        in( c{i}, $x);", f"        out( c{i + 1}, x);",
                  "    }", "}"]
    lines += ["process sink {", "    $n = 0;",
              f"    while (n < {messages}) {{",
              f"        in( c{stages}, $v);", "        n = n + 1;",
              "    }", "}"]
    return "\n".join(lines) + "\n"


# A relay that prints every message it forwards, and a consumer whose
# assertion fails on the last message: printing and raising
# transitions among cacheable ones.
PRINTING = """
channel c: int
channel d: int
process source { out( c, 0); out( c, 1); out( c, 2); out( c, 0); }
process relay {
    while (true) { in( c, $x); print( x); out( d, x); }
}
process sink {
    $n = 0;
    while (n < 4) { in( d, $v); assert( n < 3); n = n + 1; }
}
"""


# Only the relay's transitions allocate: it wraps each int it receives
# in a record the sink keeps whole.
ALLOCATING = """
type pairT = record of { a: int, b: int }
channel c: int
channel d: pairT
channel e: int
process source { out( c, 1); out( e, 0); out( c, 2); out( e, 1); }
process relay { while (true) { in( c, $x); out( d, { x, 1 }); } }
process sink { while (true) { in( d, $r); } }
process other { while (true) { in( e, $y); } }
"""


# An external writer whose entry binds an array: each delivery's args
# hold a list, and the delivery builds the message on the heap.  The
# relay and the sink hold only ints, so their transitions are cached.
ARRAY_FEED = """
type dataT = array of int
channel inC: record of { n: int, data: dataT }
channel c: int
channel d: int
external interface feed(out inC) { Feed({ $n, $data }) };
process taker {
    while (true) { in( inC, { $n, $data }); unlink( data); out( c, n); }
}
process relay { while (true) { in( c, $x); out( d, x); } }
process sink { $k = 0; while (true) { in( d, $y); k = (k + y) % 3; } }
"""


def closed(source: str):
    program = compile_source(source)
    return lambda: (Machine(program), [])


def with_default_bridges(source: str):
    program = compile_source(source)
    return lambda: (Machine(program, externals=default_verification_bridges(
        program)), [])


def observe(machine: Machine, log: list) -> tuple:
    """Everything a transition may change, as plain comparable data."""
    records = tuple(record[:5] for record in machine.snapshot()[0])
    return (
        canonical_state(machine),
        records,
        dataclasses.astuple(machine.counters),
        machine.heap.counters.snapshot(),
        machine.heap.next_oid,
        tuple(ps.steps for ps in machine.processes),
        tuple(log),
        tuple((name, tuple(values)) for name, values in machine.prints),
    )


def differential_walks(build, seed: int, walks: int = 12,
                       length: int = 40) -> dict:
    """Walk ``cached`` (through a TransitionCache) and ``twin``
    (through plain step) along the same random moves, comparing them
    after every move; some moves first restore both machines to a
    state visited earlier in the walk.  Returns what the walks saw."""
    cached, cached_log = build()
    twin, twin_log = build()
    assert step(cached, None, ()) == step(twin, None, ())
    cache = TransitionCache(cached)
    rng = random.Random(seed)
    seen = {"hits": 0, "steps": 0, "printed": 0, "allocated": 0,
            "raised": 0}
    root = (cached.snapshot(), twin.snapshot())
    for _ in range(walks):
        cached.restore(root[0])
        twin.restore(root[1])
        visited = [root]
        for _ in range(length):
            if len(visited) > 1 and rng.random() < 0.3:
                earlier = rng.choice(visited)
                cached.restore(earlier[0])
                twin.restore(earlier[1])
            moves = cached.enabled_moves()
            twin_moves = twin.enabled_moves()
            assert moves == twin_moves
            if not moves:
                break
            index = rng.randrange(len(moves))
            prints = twin.counters.prints
            heap_ops = twin.heap.counters.snapshot()
            hits = cache.hits
            found = step(cached, moves[index], (), cache)
            assert found == step(twin, twin_moves[index], ())
            hit = cache.hits != hits
            printed = twin.counters.prints != prints
            allocated = twin.heap.counters.snapshot() != heap_ops
            assert not (hit and (printed or allocated or found)), (
                moves[index], printed, allocated, found)
            seen["hits"] += hit
            seen["steps"] += 1
            seen["printed"] += printed
            seen["allocated"] += allocated
            seen["raised"] += found is not None
            assert observe(cached, cached_log) == observe(twin, twin_log)
            if found is not None:
                break
            visited.append((cached.snapshot(), twin.snapshot()))
    return seen


@settings(max_examples=25, deadline=None)
@given(esp_programs(), st.integers(min_value=0, max_value=2**16))
def test_cache_matches_plain_step_on_generated_programs(source, seed):
    differential_walks(closed(source), seed, walks=6, length=20)


def test_heap_building_transitions_are_never_replayed():
    # The relay's stretch after each receive builds a record on the
    # heap, so those transitions run every time; the source's sends
    # to ``other`` touch no heap and are replayed.
    seen = differential_walks(closed(ALLOCATING), seed=5, walks=20)
    assert seen["allocated"] and seen["hits"], seen


def test_cache_matches_plain_step_on_retransmission():
    seen = differential_walks(retransmission(2, 2), seed=7)
    assert seen["hits"] > seen["steps"] // 3, seen


def test_cache_matches_plain_step_on_relay_pipelines():
    for stages, messages in ((2, 2), (4, 3)):
        seen = differential_walks(closed(relay_pipeline(stages, messages)),
                                  seed=stages)
        assert seen["hits"] > 0, seen


def test_array_deliveries_are_never_replayed():
    seen = differential_walks(with_default_bridges(ARRAY_FEED), seed=11)
    assert seen["allocated"] and seen["hits"], seen


def test_printing_and_raising_transitions_are_never_replayed():
    seen = differential_walks(closed(PRINTING), seed=3, walks=20)
    assert seen["printed"] and seen["raised"] and seen["hits"], seen


def search_summary(result) -> tuple:
    """A search's counts, verdicts, traces, store footprint and the
    counters the cache must not change."""
    stats = result.stats
    return (result.states, result.transitions, result.transitions_pruned,
            result.max_depth, result.complete, result.memory_bytes,
            [(v.kind, v.message, v.depth, v.trace)
             for v in result.violations],
            stats["interp"], stats.get("reduction"), stats["heap_cow"])


def without_cache(monkeypatch) -> None:
    monkeypatch.setattr(TransitionCache, "for_machine",
                        classmethod(lambda cls, machine: None))


@pytest.mark.parametrize("bug", [None, "duplicate_delivery"])
@pytest.mark.parametrize("mode", ["plain", "por", "sym", "por,sym",
                                  "bitstate"])
def test_searches_match_the_same_search_without_a_cache(monkeypatch, mode,
                                                        bug):
    # Every search, clean and violating: the cache changes no count, no
    # trace, no store footprint and no interpreter counter.
    source = (protocol_source(2, 2) if bug is None
              else buggy_source(bug, window=1, messages=2))
    program = compile_source(source)

    def search():
        machine = Machine(program, externals={
            "timeoutC": ChoiceWriter(["Timeout"], [("Timeout", (0,))]),
            "allDoneC": SinkReader(["Done"]),
            "dropC": SinkReader(["Drop"]),
        })
        if mode == "bitstate":
            result = BitstateExplorer(machine, stop_at_first=False).explore()
        else:
            result = Explorer(machine, stop_at_first=False,
                              reduce=None if mode == "plain" else mode
                              ).explore()
        return search_summary(result)

    cached = search()
    without_cache(monkeypatch)
    assert search() == cached


@pytest.mark.parametrize("mode", [None, "por,sym"])
def test_array_delivery_search_matches_the_same_search_without_a_cache(
        monkeypatch, mode):
    # The deliveries' list args never key the cache; the relay's and
    # the sink's transitions are still replayed.
    program = compile_source(ARRAY_FEED)

    def search():
        machine = Machine(program,
                          externals=default_verification_bridges(program))
        return Explorer(machine, stop_at_first=False, reduce=mode).explore()

    cached = search()
    assert cached.stats["transition_cache"]["hits"] > 0
    without_cache(monkeypatch)
    assert search_summary(search()) == search_summary(cached)


@pytest.mark.parametrize("build, mode", [
    (closed(relay_pipeline(4, 3)), None),
    (retransmission(2, 2), "por,sym"),
], ids=["pipeline", "retransmission por,sym"])
def test_a_search_reuses_no_keyer_result_of_an_earlier_search(monkeypatch,
                                                             build, mode):
    # A search leaves its machine in the records it interned, whose
    # table indices and blocking-point ids belong to its own store and
    # reducer.  A second search of that machine must match the second
    # search of a twin whose first search ran without a cache: both
    # start from the state the first search ended in.
    def second_search(first_cached: bool):
        machine = build()[0]
        if not first_cached:
            without_cache(monkeypatch)
        Explorer(machine, stop_at_first=False, reduce=mode).explore()
        monkeypatch.undo()
        result = Explorer(machine, stop_at_first=False, reduce=mode).explore()
        assert result.stats["transition_cache"]["hits"] > 0
        return search_summary(result)

    assert second_search(True) == second_search(False)


# A counter: no transition repeats, so nothing is ever replayed.
COUNTING = """
channel c: int
process counter { $n = 0; while (n < 100) { out( c, n); n = n + 1; } }
process sink { while (true) { in( c, $x); } }
"""


def test_a_channel_that_never_replays_is_dropped(monkeypatch):
    program = compile_source(COUNTING)
    cached = Explorer(Machine(program), stop_at_first=False).explore()
    assert cached.stats["transition_cache"] == {
        "transitions": TransitionCache.UNREPLAYED, "records": 64, "hits": 0}
    without_cache(monkeypatch)
    uncached = Explorer(Machine(program), stop_at_first=False).explore()
    assert search_summary(uncached) == search_summary(cached)
