"""Hypothesis strategies that generate small, well-typed ESP programs.

The generator builds closed producer/consumer systems (no external
interfaces) whose state spaces are finite by construction: each
producer emits a fixed, finite sequence of literal messages and the
consumer runs counted loops.  The draw space still covers the
language features the verifier has to canonicalise — int, record, and
union channel payloads, sequential ``in`` with record destructuring,
``alt`` over union tags, guarded arms, and assertions that may or may
not hold — so differential tests (collapse vs. plain stores, reduced
vs. plain exploration, engine vs. engine) see violation-free runs,
assertion failures, and deadlocks in one stream of examples.

Every generated program type-checks and compiles; whether it verifies
cleanly is up to the dice (an ``expect`` overshoot deadlocks the
consumer, a tight assertion bound fires on large payloads).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.sim.fabric import FabricConfig
from repro.sim.faults import FaultPlan
from repro.sim.switch import SwitchConfig

# Small domains keep state spaces tiny (hundreds of states, not
# thousands): message payload ints, per-channel message counts.
_INTS = st.integers(min_value=0, max_value=2)
_COUNTS = st.integers(min_value=1, max_value=3)
_KINDS = st.sampled_from(("int", "record", "union"))

_PRELUDE = "type uT = union of { l: int, r: int }\n"

_CHANNEL_TYPES = {
    "int": "int",
    "record": "record of { a: int, b: int }",
    "union": "uT",
}


def _message(draw, kind: str) -> str:
    """One literal message expression of the channel's payload type."""
    if kind == "int":
        return str(draw(_INTS))
    if kind == "record":
        return "{ %d, %d }" % (draw(_INTS), draw(_INTS))
    tag = draw(st.sampled_from(("l", "r")))
    return "{ %s |> %d }" % (tag, draw(_INTS))


def _consume_stmt(draw, ci: int, kind: str, counter: str, bound) -> list[str]:
    """Statements consuming one message from channel ``c<ci>`` inside
    the consumer's counted loop (and maybe asserting about it)."""
    var = f"x{ci}"
    check = []
    if kind == "int":
        if bound is not None:
            check = [f"            assert( {var} <= {bound});"]
        if draw(st.booleans()):
            # A guarded single-arm alt: the guard restates the loop
            # condition, so it is always true — it exercises guard
            # evaluation without changing behaviour.
            return [
                "        alt {",
                f"            case( {counter} >= 0, in( c{ci}, ${var})) {{",
                *(["    " + line for line in check] or
                  ["                skip;"]),
                "            }",
                "        }",
            ]
        out = [f"        in( c{ci}, ${var});"]
        if bound is not None:
            out.append(f"        assert( {var} <= {bound});")
        return out
    if kind == "record":
        out = [f"        in( c{ci}, {{ $a{ci}, $b{ci} }});"]
        if bound is not None:
            out.append(f"        assert( a{ci} + b{ci} <= {bound});")
        return out
    # Union payload: an alt whose arms cover every tag (the pattern
    # checker requires channel coverage to be exhaustive).
    def arm_body(v: str) -> str:
        if bound is not None:
            return f"                assert( {v} <= {bound});"
        return "                skip;"

    return [
        "        alt {",
        f"            case( in( c{ci}, {{ l |> $u{ci} }})) {{",
        arm_body(f"u{ci}"),
        "            }",
        f"            case( in( c{ci}, {{ r |> $v{ci} }})) {{",
        arm_body(f"v{ci}"),
        "            }",
        "        }",
    ]


_RATES = st.sampled_from((0.0, 0.0, 0.01, 0.02, 0.05, 0.1))


@st.composite
def fault_plans(draw) -> FaultPlan:
    """A random deterministic fault plan with bounded rates.

    Every packet-fault rate is drawn from a small menu (most draws are
    0, so plans exercise one or two fault kinds at a time) and the sum
    stays well under 1, keeping end-to-end runs short enough for a
    property test while still covering drop/dup/reorder/delay/corrupt
    mixes and DMA stalls.
    """
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        drop=draw(_RATES),
        dup=draw(_RATES),
        reorder=draw(_RATES),
        delay=draw(_RATES),
        corrupt=draw(_RATES),
        dma_stall=draw(_RATES),
    )


@st.composite
def topologies(draw) -> FabricConfig:
    """A random bounded fabric configuration.

    Node counts, port speeds, and buffer sizes are drawn from small
    menus so an end-to-end run stays fast; scenarios are the two the
    conservation property targets (incast concentrates load on one
    port, churn staggers flow starts).  The buffer floor (8 KiB) is
    well above one max-size packet, so tiny draws exercise congestion
    drops without tripping the constructor's capacity check.
    """
    nodes = draw(st.sampled_from((2, 3, 4, 6, 8)))
    scenario = draw(st.sampled_from(("incast", "churn")))
    return FabricConfig(
        nodes=nodes,
        scenario=scenario,
        messages=draw(st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=2**16 - 1)),
        window=draw(st.sampled_from((2, 4, 8))),
        chunk_bytes=draw(st.sampled_from((256, 1024))),
        churn_flows=draw(st.integers(min_value=0, max_value=4)),
        churn_span_us=float(draw(st.sampled_from((500, 2_000)))),
        switch=SwitchConfig(
            port_mb_s=draw(st.sampled_from((None, 40.0, 160.0))),
            buffer_bytes=draw(st.sampled_from((8_192, 32_768, 262_144))),
        ),
    )


@st.composite
def esp_programs(draw) -> str:
    """A random small well-typed ESP program (returned as source text).

    Shape: 1–2 rendezvous channels of a random payload kind, one
    producer process per channel emitting 1–3 literal messages, and one
    consumer draining each channel in a counted loop.  With probability
    ~1/4 the consumer expects one message too many on some channel
    (guaranteed deadlock); assertion bounds are drawn tight enough to
    fail sometimes.
    """
    n_channels = draw(st.integers(min_value=1, max_value=2))
    kinds = [draw(_KINDS) for _ in range(n_channels)]
    messages = [[_message(draw, kind) for _ in range(draw(_COUNTS))]
                for kind in kinds]
    # Assertion bound: None (no asserts), or a small int; payload sums
    # reach 4, so bounds below 4 can fire.
    bound = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
    # Which channel (if any) the consumer over-waits on.
    overshoot = draw(st.sampled_from((None, None, None, 0)))
    if overshoot is not None:
        overshoot = overshoot % n_channels

    lines = [_PRELUDE]
    for ci, kind in enumerate(kinds):
        lines.append(f"channel c{ci}: {_CHANNEL_TYPES[kind]}")
    lines.append("")
    for ci, msgs in enumerate(messages):
        lines.append(f"process prod{ci} {{")
        for msg in msgs:
            lines.append(f"    out( c{ci}, {msg});")
        lines.append("}")
        lines.append("")
    lines.append("process cons {")
    for ci, (kind, msgs) in enumerate(zip(kinds, messages)):
        expect = len(msgs) + (1 if overshoot == ci else 0)
        counter = f"n{ci}"
        lines.append(f"    ${counter} = 0;")
        lines.append(f"    while ({counter} < {expect}) {{")
        lines.extend(_consume_stmt(draw, ci, kind, counter, bound))
        lines.append(f"        {counter} = {counter} + 1;")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"
