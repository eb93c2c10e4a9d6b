"""Tests for multi-machine coupled verification (§5.2's multiple
firmware copies communicating)."""

import pytest

from repro import Machine, compile_source
from repro.errors import ESPRuntimeError
from repro.verify import (
    BitstateExplorer,
    ChoiceWriter,
    CoupledSystem,
    Explorer,
    Link,
    SinkReader,
)

# One node of a two-node echo ring: receives a value, adds its node
# bias, sends it onward.
NODE = """
channel fromWireC: int
channel toWireC: int
external interface rx(out fromWireC) { Msg($v) };
external interface tx(in toWireC) { Msg($v) };
process relay {
    while (true) {
        in( fromWireC, $x);
        assert( x < 10);
        out( toWireC, x + 1);
    }
}
"""


def make_node(extra_externals=None):
    machine = Machine(compile_source(NODE), externals=dict(extra_externals or {}))
    return machine


def ring(lossy=False, seed_value=0):
    a = make_node()
    b = make_node()
    system = CoupledSystem(
        [a, b],
        [
            Link(src=0, out_channel="toWireC", dst=1, in_channel="fromWireC",
                 lossy=lossy),
            Link(src=1, out_channel="toWireC", dst=0, in_channel="fromWireC",
                 lossy=lossy),
        ],
    )
    # Inject the token: preload link 0's buffer.
    system.links[0].in_flight.append(("Msg", (seed_value,)))
    return system


def test_token_circulates_between_machines():
    system = ring(seed_value=0)
    system.run_ready()
    # Token alternates machines, incrementing until the assertion bound.
    moves = system.enabled_moves()
    assert len(moves) == 1
    result = Explorer(system, quiescence_ok=True).explore()
    # x grows by 1 per hop; at x == 10 the relay's assertion fires —
    # proving the token really crossed machines ten times.
    assert not result.ok
    assert result.violations[0].kind == "assertion"
    assert len(result.violations[0].trace) >= 10


def test_ring_without_token_deadlocks_naming_both_relays():
    # No token injected: each relay waits on its wire for good.  With
    # quiescence_ok=False that is one deadlock, and its message names
    # the blocked relay of each machine.
    system = CoupledSystem(
        [make_node(), make_node()],
        [
            Link(src=0, out_channel="toWireC", dst=1, in_channel="fromWireC"),
            Link(src=1, out_channel="toWireC", dst=0, in_channel="fromWireC"),
        ],
    )
    result = Explorer(system, quiescence_ok=False).explore()
    assert [v.kind for v in result.violations] == ["deadlock"]
    message = result.violations[0].message
    assert "m0: relay at " in message and "m1: relay at " in message


def test_bounded_token_ring_verifies_clean():
    source = NODE.replace("assert( x < 10);", "if (x > 3) { x = 0; }")
    a = Machine(compile_source(source))
    b = Machine(compile_source(source))
    system = CoupledSystem(
        [a, b],
        [
            Link(0, "toWireC", 1, "fromWireC"),
            Link(1, "toWireC", 0, "fromWireC"),
        ],
    )
    system.links[0].in_flight.append(("Msg", (0,)))
    result = Explorer(system, quiescence_ok=True).explore()
    assert result.ok and result.complete
    # Wrapping keeps the space finite and small.
    assert result.states < 50


def test_lossy_link_adds_drop_moves():
    system = ring(lossy=True)
    system.run_ready()
    moves = system.enabled_moves()
    descriptions = [m.describe(system) for m in moves]
    assert any("wire drop" in d for d in descriptions)
    # After dropping the only token, the ring is dead: quiescence.
    drop = next(m for m in moves if "Drop" in type(m).__name__)
    system.apply(drop)
    system.run_ready()
    assert system.enabled_moves() == []


def test_lossy_exploration_includes_both_fates():
    source = NODE.replace("assert( x < 10);", "skip;").replace(
        "out( toWireC, x + 1);", "out( toWireC, (x + 1) % 3);"
    )
    a = Machine(compile_source(source))
    b = Machine(compile_source(source))
    system = CoupledSystem(
        [a, b],
        [
            Link(0, "toWireC", 1, "fromWireC", lossy=True),
            Link(1, "toWireC", 0, "fromWireC", lossy=True),
        ],
    )
    system.links[0].in_flight.append(("Msg", (0,)))
    result = Explorer(system, quiescence_ok=True).explore()
    assert result.ok and result.complete
    # States include both the circulating token and the dead-after-drop
    # configurations.
    assert result.states >= 6


def test_link_validation():
    a = make_node()
    b = make_node()
    with pytest.raises(ESPRuntimeError, match="external-reader"):
        CoupledSystem([a, b], [Link(0, "fromWireC", 1, "fromWireC")])
    a2, b2 = make_node(), make_node()
    with pytest.raises(ESPRuntimeError, match="external-writer"):
        CoupledSystem([a2, b2], [Link(0, "toWireC", 1, "toWireC")])


def test_capacity_backpressure():
    # A producer that streams into a capacity-1 link: the link endpoint
    # refuses the second message until the first is consumed.
    producer_src = """
channel toWireC: int
external interface tx(in toWireC) { Msg($v) };
process gen { $i = 0; while (i < 4) { out( toWireC, i); i = i + 1; } }
"""
    consumer_src = """
channel fromWireC: int
channel outC: int
external interface rx(out fromWireC) { Msg($v) };
external interface done(in outC) { D($v) };
process sink { while (true) { in( fromWireC, $x); out( outC, x); } }
"""
    producer = Machine(compile_source(producer_src))
    consumer = Machine(compile_source(consumer_src),
                       externals={"outC": SinkReader(["D"])})
    system = CoupledSystem(
        [producer, consumer],
        [Link(0, "toWireC", 1, "fromWireC", capacity=1)],
    )
    result = Explorer(system, quiescence_ok=True).explore()
    assert result.ok
    assert len(system.links[0].in_flight) <= 1


def test_entry_map_renames_entries():
    producer_src = """
channel toWireC: int
external interface tx(in toWireC) { Ping($v) };
process gen { out( toWireC, 7); }
"""
    consumer_src = """
channel fromWireC: int
channel outC: int
external interface rx(out fromWireC) { Pong($v) };
external interface done(in outC) { D($v) };
process sink { in( fromWireC, $x); out( outC, x); }
"""
    producer = Machine(compile_source(producer_src))
    drain = SinkReader(["D"])
    consumer = Machine(compile_source(consumer_src), externals={"outC": drain})
    system = CoupledSystem(
        [producer, consumer],
        [Link(0, "toWireC", 1, "fromWireC", entry_map={"Ping": "Pong"})],
    )
    result = Explorer(system, quiescence_ok=True).explore()
    assert result.ok
    assert drain.accepted == 1


def test_split_retransmission_across_machines():
    """The §5.2 headline: run the protocol's two halves as *separate
    machines* (separate firmware copies) joined by lossy links, and
    verify the whole setup exhaustively."""
    sender_src = """
const W = 2;
const MSGS = 2;
channel wireOutC: record of { seq: int, val: int }
channel ackInC: int
channel timeoutC: int
external interface tx(in wireOutC) { Data($seq, $val) };
external interface rx(out ackInC) { Ack($a) };
external interface timer(out timeoutC) { Timeout($t) };
process sender {
    $base = 0;
    $next = 0;
    while (base < MSGS) {
        alt {
            case( next < MSGS && next - base < W,
                  out( wireOutC, { next, next * 10 })) { next = next + 1; }
            case( in( ackInC, $a)) { if (a >= base) { base = a + 1; } }
            case( base < next, in( timeoutC, $t)) {
                $i = base;
                while (i < next) { out( wireOutC, { i, i * 10 }); i = i + 1; }
            }
        }
    }
}
"""
    receiver_src = """
channel wireInC: record of { seq: int, val: int }
channel ackOutC: int
external interface rx(out wireInC) { Data($seq, $val) };
external interface tx(in ackOutC) { Ack($a) };
process receiver {
    $expect = 0;
    while (true) {
        in( wireInC, { $seq, $val });
        if (seq == expect) {
            assert( val == seq * 10);
            expect = expect + 1;
        }
        out( ackOutC, expect - 1);
    }
}
"""
    sender = Machine(compile_source(sender_src), externals={
        "timeoutC": ChoiceWriter(["Timeout"], [("Timeout", (0,))]),
    })
    receiver = Machine(compile_source(receiver_src))
    system = CoupledSystem(
        [sender, receiver],
        [
            Link(0, "wireOutC", 1, "wireInC", lossy=True),
            Link(1, "ackOutC", 0, "ackInC", lossy=True),
        ],
    )
    result = Explorer(system, quiescence_ok=True, max_states=100_000).explore()
    assert result.ok, result.violations[:1]
    assert result.complete
    assert result.states > 20


# -- the flat coupled state ----------------------------------------------------

BOUNDED_NODE = NODE.replace("assert( x < 10);", "if (x > 3) { x = 0; }")
LOSSY_NODE = NODE.replace("assert( x < 10);", "skip;").replace(
    "out( toWireC, x + 1);", "out( toWireC, (x + 1) % 3);")


def ring_of(source, lossy=False, token_link=0):
    """Two machines of ``source`` in a ring, the token in one link."""
    system = CoupledSystem(
        [Machine(compile_source(source)), Machine(compile_source(source))],
        [
            Link(0, "toWireC", 1, "fromWireC", lossy=lossy),
            Link(1, "toWireC", 0, "fromWireC", lossy=lossy),
        ],
    )
    if token_link is not None:
        system.links[token_link].in_flight.append(("Msg", (0,)))
    return system


@pytest.mark.parametrize("source, lossy, expected", [
    (NODE, False, (21, 21, ["assertion"])),
    (BOUNDED_NODE, False, (11, 11, [])),
    (LOSSY_NODE, True, (23, 23, [])),
], ids=["token ring", "bounded ring", "lossy ring"])
def test_every_store_explores_the_same_coupled_space(source, lossy, expected):
    # A coupled state is one flat (procs, heap, ext) state, so the
    # collapse, plain and bit-state stores all keep it, and none of
    # them merges two states or splits one.
    results = [
        Explorer(ring_of(source, lossy), stop_at_first=False,
                 store=store).explore()
        for store in ("collapse", "plain")
    ]
    results.append(BitstateExplorer(ring_of(source, lossy),
                                    stop_at_first=False).explore())
    for result in results:
        assert (result.states, result.transitions,
                [v.kind for v in result.violations]) == expected


def test_coupled_states_keep_machines_and_links_apart():
    # The same leaked object, held by one machine or by the other:
    # processes and heap entries are equal, and only the per-machine
    # heap lengths in ext tell the two states apart.
    states = []
    for holder in (0, 1):
        system = ring_of(NODE, token_link=None)
        system.run_ready()
        system.machines[holder].heap.alloc("array", [5], mutable=False)
        states.append(system.canonical_state())
    assert states[0][:2] == states[1][:2]
    assert states[0] != states[1]
    # The same token in one link or in the other.
    tokens = []
    for link in (0, 1):
        system = ring_of(NODE, token_link=link)
        system.run_ready()
        tokens.append(system.canonical_state())
    assert tokens[0][:2] == tokens[1][:2]
    assert tokens[0] != tokens[1]
