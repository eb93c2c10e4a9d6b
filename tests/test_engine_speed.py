"""The engines' speed contract, enforced on every run.

The closure-compiled engine (``repro.runtime.compile``) reproduces the
paper's threaded-code backend (§4.3, §6.1) in Python, and the native
engine runs the generated C itself.  Their reason to exist is speed,
so each has a gate against the AST reference interpreter:

* compiled >= 3x the AST walker's messages/sec on the three Fig. 5
  communication shapes (ping-pong latency, one-way windowed bandwidth,
  bidirectional bandwidth), each with a per-message checksum loop
  standing in for the firmware's per-packet work;
* compiled >= 3x the AST walker's states/sec while the verifier
  explores compute-heavy relay pipelines: each hop runs a long
  deterministic stretch between blocking points, the regime §5's
  state-machine reduction creates;
* native >= 50x the AST walker's messages/sec on the Fig. 5 shapes
  (skipped without a C compiler);
* the compiled engine's Python calls per message transfer on the
  simulated VMMC firmware stay under a bound.  That count is
  deterministic for a given Python version, so it guards the
  scheduler's and machine's per-transfer path without a timer.

The engines under comparison run the identical execution (equal
transfer and instruction counts, or equal states and transitions), so
each ratio is interpretation speed alone.  The engines take turns over
``SAMPLES`` runs each, and a gate reads the median of the ratios of
paired runs: on a shared host the speed of each engine drifts by tens
of percent within seconds, the two runs of a pair see the same drift,
and the median drops the pairs a burst of load hit.  (The native gate,
far from its bound, pairs its runs with the AST runs the compiled gate
measured.)  The models are small enough for the tier-1 suite; their
ratios barely depend on size, because every message and every state
costs the same fixed stretch of work.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

import pytest

from repro.api import compile_source
from repro.backends.c.build import find_cc
from repro.lang.parser import parse
from repro.lang.program import frontend_from_ast
from repro.runtime import machine as machine_module
from repro.runtime.machine import Machine, create_machine
from repro.runtime.scheduler import create_scheduler
from repro.serve.keys import canonical_ir_hash
from repro.verify.explorer import Explorer
from repro.verify.memsafety import build_isolated_machine
from repro.vmmc import workloads
from repro.vmmc.firmware_esp import VMMC_ESP_SOURCE
from repro.vmmc.retransmission import protocol_source

MIN_SPEEDUP = 3.0
NATIVE_MIN_SPEEDUP = 50.0
SAMPLES = 9

needs_cc = pytest.mark.skipif(find_cc() is None,
                              reason="no C compiler available")

# Per-packet firmware work: a checksum over ``words`` payload words.
_CHECKSUM = ("$sum = 0; $w = 0; "
             "while (w < {words}) {{ "
             "sum = (sum + (({seed} + w) * 31 & 65535)) % 65521; "
             "w = w + 1; }}")


def pingpong_source(rounds: int, words: int) -> str:
    """Fig. 5(a) shape: request/reply round trips, checksum per leg."""
    client_sum = _CHECKSUM.format(words=words, seed="(n + w)")
    server_sum = _CHECKSUM.format(words=words, seed="(payload + w)")
    return f"""
channel reqC: int
channel repC: int

process client {{
    $n = 0;
    while (n < {rounds}) {{
        {client_sum}
        out( reqC, sum);
        in( repC, $ack);
        n = n + 1;
    }}
}}

process server {{
    $n = 0;
    while (n < {rounds}) {{
        in( reqC, $payload);
        {server_sum}
        out( repC, sum);
        n = n + 1;
    }}
}}
"""


def bandwidth_source(messages: int, window: int, words: int) -> str:
    """Fig. 5(b) shape: a one-way stream under a credit window; the
    sender's alt overlaps sending with ack consumption."""
    send_sum = _CHECKSUM.format(words=words, seed="(sent + w)")
    recv_sum = _CHECKSUM.format(words=words, seed="(n + w)")
    return f"""
channel dataC: int
channel ackC: int

process sender {{
    $credits = {window};
    $sent = 0;
    $acked = 0;
    $chk = 0;
    while (acked < {messages}) {{
        alt {{
            case( sent < {messages} && credits > 0, out( dataC, chk)) {{
                credits = credits - 1;
                sent = sent + 1;
                {send_sum}
                chk = sum;
            }}
            case( in( ackC, $c)) {{
                credits = credits + 1;
                acked = acked + 1;
            }}
        }}
    }}
}}

process receiver {{
    $n = 0;
    while (n < {messages}) {{
        in( dataC, $d);
        {recv_sum}
        out( ackC, sum);
        n = n + 1;
    }}
}}
"""


def bidirectional_source(messages: int, words: int) -> str:
    """Fig. 5(c) shape: both sides stream concurrently, interleaving
    sends and receives through a two-armed alt."""
    def side(me: int, mine: str, theirs: str) -> str:
        send_sum = _CHECKSUM.format(words=words, seed="(sent + w)")
        recv_sum = ("$rsum = 0; $r = 0; "
                    f"while (r < {words}) {{ "
                    "rsum = (rsum + ((got + r) * 31 & 65535)) % 65521; "
                    "r = r + 1; }")
        return f"""
process side{me} {{
    $sent = 0;
    $got = 0;
    while (sent < {messages} || got < {messages}) {{
        alt {{
            case( sent < {messages}, out( {mine}, sent)) {{
                sent = sent + 1;
                {send_sum}
            }}
            case( got < {messages}, in( {theirs}, $d)) {{
                got = got + 1;
                {recv_sum}
            }}
        }}
    }}
}}
"""
    return ("channel abC: int\nchannel baC: int\n"
            + side(0, "abC", "baC") + side(1, "baC", "abC"))


def compute_pipeline_source(stages: int, messages: int, work: int) -> str:
    """A relay pipeline whose every hop runs ``work`` iterations of
    arithmetic before forwarding.  Each relay holds an array local, so
    the verifier's transition cache never replays its moves: every
    transition runs the engine under test."""
    lines = [f"channel c{i}: int" for i in range(stages + 1)]
    lines.append("process source {")
    lines += [f"    out( c0, {m});" for m in range(messages)]
    lines.append("}")
    for i in range(stages):
        lines += [f"process relay{i} {{",
                  "    $t: #array of int = #{ 2 -> 0, ... };",
                  "    while (true) {",
                  f"        in( c{i}, $x);",
                  "        $a = x; $j = 0;",
                  f"        while (j < {work}) "
                  "{ a = (a * 7 + j) % 97; j = j + 1; }",
                  f"        out( c{i + 1}, a);", "    }", "}"]
    lines += ["process sink {", "    $n = 0;",
              f"    while (n < {messages}) {{ in( c{stages}, $v); "
              "n = n + 1; }", "}"]
    return "\n".join(lines) + "\n"


FIG5 = {
    "pingpong r100w32": pingpong_source(100, 32),
    "bandwidth m60w8c64": bandwidth_source(60, 8, 64),
    "bidirectional m40w64": bidirectional_source(40, 64),
}


def _fig5_run(program, engine: str) -> tuple[float, tuple[int, int]]:
    """Messages/sec of one run to completion, and its (transfers,
    instructions)."""
    scheduler = create_scheduler(create_machine(program, engine=engine))
    start = time.perf_counter()
    result = scheduler.run(max_transfers=10_000_000)
    elapsed = time.perf_counter() - start
    assert result.reason == "done", (engine, result.reason)
    return result.transfers / elapsed, (result.transfers, result.instructions)


def _explore_run(program, engine: str) -> tuple[float, tuple[int, int]]:
    """States/sec of one exhaustive search, and its (states,
    transitions)."""
    result = Explorer(Machine(program, engine=engine),
                      stop_at_first=False).explore()
    assert result.ok and result.complete, engine
    # A replayed transition runs no engine code: the gate would time
    # the cache instead of the engine.
    assert result.stats["transition_cache"]["hits"] == 0, engine
    return (result.states / result.elapsed_seconds,
            (result.states, result.transitions))


def _samples(run, program, engines: tuple[str, ...]):
    """Per engine, its rates over ``SAMPLES`` runs and the shape of its
    runs; the engines take turns."""
    rates = {engine: [] for engine in engines}
    shapes = {}
    for _ in range(SAMPLES):
        for engine in engines:
            rate, shapes[engine] = run(program, engine)
            rates[engine].append(rate)
    return rates, shapes


def _speedup(fast: list[float], slow: list[float]) -> float:
    return statistics.median(f / s for f, s in zip(fast, slow))


@pytest.fixture(scope="module")
def fig5():
    """Per Fig. 5 shape: its program and the AST and compiled engines'
    samples, measured once so the native gate reuses the AST rates."""
    measured = {}
    for name, source in FIG5.items():
        program = compile_source(source)
        measured[name] = (program,
                          *_samples(_fig5_run, program, ("ast", "compiled")))
    return measured


@pytest.mark.parametrize("name", list(FIG5))
def test_compiled_engine_moves_three_times_the_messages(fig5, name):
    _program, rates, shapes = fig5[name]
    assert shapes["compiled"] == shapes["ast"]
    speedup = _speedup(rates["compiled"], rates["ast"])
    assert speedup >= MIN_SPEEDUP, (
        f"{name}: compiled moves {speedup:.2f}x the AST walker's "
        f"messages/sec (gate {MIN_SPEEDUP}x)")


@needs_cc
@pytest.mark.parametrize("name", list(FIG5))
def test_native_engine_moves_fifty_times_the_messages(fig5, name):
    program, rates, shapes = fig5[name]
    native, native_shapes = _samples(_fig5_run, program, ("native",))
    assert native_shapes["native"] == shapes["ast"]
    speedup = _speedup(native["native"], rates["ast"])
    assert speedup >= NATIVE_MIN_SPEEDUP, (
        f"{name}: native moves {speedup:.0f}x the AST walker's "
        f"messages/sec (gate {NATIVE_MIN_SPEEDUP:.0f}x)")


def test_compiled_engine_explores_three_times_the_states():
    program = compile_source(compute_pipeline_source(6, 3, 128))
    rates, shapes = _samples(_explore_run, program, ("ast", "compiled"))
    assert shapes["compiled"] == shapes["ast"] == (72, 131)
    speedup = _speedup(rates["compiled"], rates["ast"])
    assert speedup >= MIN_SPEEDUP, (
        f"compiled explores {speedup:.2f}x the AST walker's states/sec "
        f"(gate {MIN_SPEEDUP}x)")


# Python calls per transfer of vmmcESP on the compiled engine, counted
# with ``sys.setprofile``: 69.7 and 68.2 on CPython 3.11.  The bounds
# leave 10% for other CPython versions; 3.12 inlines comprehensions and
# reads lower.
CALLS_PER_TRANSFER = {
    "pingpong_latency 4": (workloads.pingpong_latency, 4, 77.0),
    "one_way_bandwidth 1024": (workloads.one_way_bandwidth, 1024, 75.0),
}


@pytest.mark.parametrize("name", list(CALLS_PER_TRANSFER))
def test_compiled_firmware_calls_per_transfer(name, monkeypatch):
    fn, size, bound = CALLS_PER_TRANSFER[name]
    monkeypatch.setattr(machine_module, "DEFAULT_ENGINE", "compiled")
    pairs = []
    build_pair = workloads.build_pair

    def recording_build_pair(*args, **kwargs):
        pair = build_pair(*args, **kwargs)
        pairs.append(pair)
        return pair

    monkeypatch.setattr(workloads, "build_pair", recording_build_pair)
    fn("esp", size)  # first use compiles the firmware's closures
    pairs.clear()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn("esp", size)
    finally:
        sys.setprofile(previous)
    (pair,) = pairs
    transfers = sum(nic.firmware.machine.counters.transfers
                    for nic in pair.nics)
    assert transfers > 0
    per_transfer = calls / transfers
    assert per_transfer <= bound, (
        f"{name}: {per_transfer:.1f} Python calls per transfer "
        f"(bound {bound})")


# Python calls of the front end on two small jobs, each run once to warm
# up and then counted like ``CALLS_PER_TRANSFER``: the VMMC ``acker``
# job's parse, check, isolation, IR passes and machine build, and the
# compile plus serve key of retransmission w2m2.  The counts are
# deterministic for a given Python version; each bound is the count on
# CPython 3.11 plus 10%.
_W2M2 = protocol_source(2, 2)
FRONT_END_CALLS = {
    "vmmc acker": (lambda: build_isolated_machine(
        frontend_from_ast(parse(VMMC_ESP_SOURCE)), "acker"), 10_628),
    "retransmission w2m2 key": (lambda: canonical_ir_hash(
        compile_source(_W2M2)), 7_676),
}


@pytest.mark.parametrize("name", list(FRONT_END_CALLS))
def test_front_end_python_calls(name):
    job, bound = FRONT_END_CALLS[name]
    job()
    gc.collect()  # no finalizer of an earlier test's garbage runs inside
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        job()
    finally:
        sys.setprofile(previous)
    assert calls <= bound, (
        f"{name}: {calls} Python calls in the front end (bound {bound})")
