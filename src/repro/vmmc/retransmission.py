'''The retransmission protocol, developed the paper's way (§5.3).

"The retransmission protocol (a simple sliding window protocol with
piggyback acknowledgement) was developed entirely using the SPIN
simulator ... Once debugged, the retransmission protocol was compiled
into the firmware."

This module reproduces both halves of that flow:

**Verification** (:func:`verify_protocol`): a go-back-N sliding-window
protocol written in ESP, paired with a lossy-wire *test harness that is
itself ESP code* (the role of the 65-line test.SPIN): wire processes
nondeterministically deliver or drop every packet and every ack, and an
always-ready timeout source lets the sender retransmit at any point.
Exhaustive exploration then checks in-order uncorrupted delivery, the
sender's window invariant, and absence of deadlock.

**Execution** (:class:`RetransFirmware`, :func:`run_over_faulty_link`):
the *same* sender and receiver process text — the module composes both
sources from the shared ``SENDER_PROCESS``/``RECEIVER_PROCESS``
fragments — compiled by the real frontend and run through the
interpreter as firmware on the simulated NIC, over the timed wire with
deterministic fault injection (:mod:`repro.sim.faults`).  The lossy
wire of the verification harness is replaced by the simulated link's
fault injector; the monitor's assertions are replaced by harness checks
on the delivered-payload log.  The timeout source becomes a real timer
with backoff, managed by the adapter (the "C side" of §4.6).

``BUGGY_VARIANTS`` contains the seeded protocol bugs used by the
verification benchmark — each must produce a counterexample, the
paper's "the verifier was able to find the bug in every case" — and,
because the fragments are shared, each can also be run over the faulty
simulated wire to tie verifier counterexamples to runtime misbehaviour.
'''

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from repro.api import compile_source
from repro.ir.nodes import IRProgram
from repro.runtime.external import CallbackReader, QueueWriter
from repro.runtime.machine import Machine
from repro.sim.faults import FaultPlan
from repro.sim.nic import FirmwareAction, FirmwareInput
from repro.sim.timing import CostModel, ReliabilityCounters
from repro.verify.environment import ChoiceWriter, SinkReader
from repro.verify.explorer import Explorer, ExploreResult
from repro.vmmc.firmware_esp import EspMachineFirmware
from repro.vmmc.packets import (
    ACK,
    DATA,
    csum_ok,
    retrans_ack_packet,
    retrans_data_packet,
)

# -- the protocol, as shared process fragments --------------------------------
#
# Both the verification model and the runtime firmware are assembled
# from these exact strings, so what runs on the simulated NIC is
# byte-for-byte the process text the verifier explored (and the
# BUGGY_VARIANTS patches apply identically to both).

SENDER_PROCESS = """\
// The protocol: sender side.
process sender {{
    $base = 0;
    $next = 0;
    while (base < MSGS) {{
        assert( next - base <= W);
        alt {{
            case( next < MSGS && next - base < W,
                  out( sToWireC, {{ next, next * 10 }})) {{
                next = next + 1;
            }}
            case( in( sFromWireC, $a)) {{
                if (a >= base) {{ base = a + 1; }}
            }}
            case( base < next, in( timeoutC, $t)) {{
                // go-back-N: retransmit the whole window
                $i = base;
                while (i < next) {{
                    out( sToWireC, {{ i, i * 10 }});
                    i = i + 1;
                }}
            }}
        }}
    }}
    out( sDoneC, 1);
}}
"""

RECEIVER_PROCESS = """\
// The protocol: receiver side (cumulative acknowledgement).
process receiver {{
    $expect = 0;
    while {{
        in( rFromWireC, {{ $seq, $val }});
        if (seq == expect) {{
            out( monC, val);
            expect = expect + 1;
        }}
        out( rToWireC, expect - 1);
    }}
}}
"""

_SHARED_DECLS = """\
const W = {window};
const MSGS = {messages};

channel sToWireC: record of {{ seq: int, val: int }}
channel rFromWireC: record of {{ seq: int, val: int }}
channel rToWireC: int
channel sFromWireC: int
channel timeoutC: int
channel monC: int
channel sDoneC: int
"""


def protocol_source(window: int = 2, messages: int = 3) -> str:
    """The ESP source of the protocol plus its lossy-wire harness."""
    return ("""
// Go-back-N sliding window with cumulative acks, plus the lossy-wire
// test harness (the test.SPIN role).

""" + _SHARED_DECLS + """\
channel allDoneC: int
channel dropC: int

external interface timer(out timeoutC) {{ Timeout($t) }};
external interface allDone(in allDoneC) {{ Done($v) }};
external interface dropped(in dropC) {{ Drop($seq) }};

""" + SENDER_PROCESS + """
""" + RECEIVER_PROCESS + """
// Test harness: the delivery monitor (the property half of test.SPIN):
// messages must arrive in order, uncorrupted, and all of them must
// have arrived by the time the sender believes it is done.
process monitor {{
    $want = 0;
    while {{
        alt {{
            case( in( monC, $v)) {{
                assert( v == want * 10);
                want = want + 1;
            }}
            case( in( sDoneC, $d)) {{
                assert( want == MSGS);
                out( allDoneC, 1);
            }}
        }}
    }}
}}

// Test harness: a lossy wire in each direction — every packet is
// nondeterministically delivered or dropped (alt over two sends).
process wireData {{
    while {{
        in( sToWireC, {{ $seq, $val }});
        alt {{
            case( out( rFromWireC, {{ seq, val }})) {{ skip; }}
            case( out( dropC, seq)) {{ skip; }}
        }}
    }}
}}
process wireAck {{
    while {{
        in( rToWireC, $a);
        alt {{
            case( out( sFromWireC, a)) {{ skip; }}
            case( out( dropC, a)) {{ skip; }}
        }}
    }}
}}
""").format(window=window, messages=messages)


def runtime_source(window: int = 8, messages: int = 0) -> str:
    """The ESP source of the protocol *as firmware*: the same sender
    and receiver processes, with the wire, timer, delivery, and
    completion channels exported through external interfaces instead of
    modelled by harness processes."""
    return ("""\
// Go-back-N sliding window, compiled into the firmware (§5.3): the
// verified sender/receiver over the device's real (simulated) link.

""" + _SHARED_DECLS + """\

external interface wireData(in sToWireC) {{ Data($seq, $val) }};
external interface wireAckIn(out sFromWireC) {{ Ack($a) }};
external interface wireDataIn(out rFromWireC) {{ Data($seq, $val) }};
external interface wireAck(in rToWireC) {{ Ack($a) }};
external interface timer(out timeoutC) {{ Timeout($t) }};
external interface deliver(in monC) {{ Deliver($v) }};
external interface senderDone(in sDoneC) {{ Done($d) }};

""" + SENDER_PROCESS + """
""" + RECEIVER_PROCESS).format(window=window, messages=messages)


# Seeded protocol bugs (name -> (broken fragment, replacement)); each
# must be caught by exhaustive verification, and each also misbehaves
# over the simulated faulty wire (tests/test_fault_injection.py).
BUGGY_VARIANTS: dict[str, tuple[str, str]] = {
    # Delivers retransmitted duplicates: the in-order check is lost, so
    # after an ack loss the same sequence number is delivered twice and
    # the payload assertion fires on the stale packet.
    "duplicate_delivery": (
        "if (seq == expect) {",
        "if (seq <= expect) {",
    ),
    # Window overrun: the send guard is off by one, violating the
    # sender's own window invariant.
    "window_overrun": (
        "case( next < MSGS && next - base < W,",
        "case( next < MSGS && next - base < W + 1,",
    ),
    # Ack off-by-one: acknowledges a packet not yet received, so the
    # sender can finish while deliveries are missing — caught by the
    # monitor's completion assertion.
    "premature_ack": (
        "out( rToWireC, expect - 1);",
        "out( rToWireC, expect);",
    ),
}


def _apply_bug(source: str, name: str) -> str:
    old, new = BUGGY_VARIANTS[name]
    assert old in source, f"bug template {name!r} no longer matches"
    return source.replace(old, new)


def buggy_source(name: str, window: int = 2, messages: int = 3) -> str:
    """The verification model with one seeded bug applied."""
    return _apply_bug(protocol_source(window, messages), name)


@dataclass
class RetransReport:
    """Verification result for one protocol variant."""

    variant: str
    result: ExploreResult

    @property
    def ok(self) -> bool:
        return self.result.ok

    def summary(self) -> str:
        return f"retransmission[{self.variant}]: {self.result.summary()}"


def build_machine(source: str) -> Machine:
    program = compile_source(source, filename="retransmission.esp")
    externals = {
        "timeoutC": ChoiceWriter(["Timeout"], [("Timeout", (0,))]),
        "allDoneC": SinkReader(["Done"]),
        "dropC": SinkReader(["Drop"]),
    }
    return Machine(program, externals=externals)


def verify_protocol(variant: str = "correct", window: int = 2,
                    messages: int = 3,
                    max_states: int | None = 500_000) -> RetransReport:
    """Exhaustively verify the protocol (or a seeded-bug variant)."""
    if variant == "correct":
        source = protocol_source(window, messages)
    else:
        source = buggy_source(variant, window, messages)
    machine = build_machine(source)
    explorer = Explorer(machine, max_states=max_states, quiescence_ok=True)
    return RetransReport(variant, explorer.explore())


# -- the protocol as firmware ---------------------------------------------------


@lru_cache(maxsize=64)
def _compile_runtime(window: int, messages: int, variant: str) -> IRProgram:
    source = runtime_source(window, messages)
    if variant != "correct":
        source = _apply_bug(source, variant)
    return compile_source(source, filename="retransmission_rt.esp")


class RetransFirmware(EspMachineFirmware):
    """The verified go-back-N protocol running as NIC firmware.

    Each NIC runs both the sender (``messages`` payloads to push; 0
    for a pure receiver) and the receiver process, so a pair of these
    firmwares carries bidirectional traffic.  The adapter plays the
    paper's C role: packet marshalling with checksums, ack/data
    demultiplexing, and the retransmission timer — armed whenever
    packets are in flight, doubled on each expiry (capped at
    ``timeout_max_us``), reset to ``timeout_us`` when an ack makes
    progress.  Fault/recovery counters live in
    :class:`repro.sim.timing.ReliabilityCounters`.
    """

    def __init__(self, cost: CostModel, node_id: int, messages: int = 0,
                 window: int = 8, variant: str = "correct",
                 chunk_bytes: int = 1024, timeout_us: float = 150.0,
                 timeout_max_us: float = 2400.0, backoff: float = 2.0,
                 peer: int | None = None, engine: str | None = None):
        super().__init__(cost, node_id)
        self.name = f"retrans[{variant}]"
        self.messages = messages
        # The node this endpoint's traffic is addressed to.  The
        # default is the point-to-point wire's other side; the fabric
        # multiplexer passes an explicit peer per flow.
        self.peer = (1 - node_id) if peer is None else peer
        self.window = window
        self.variant = variant
        self.chunk_bytes = chunk_bytes
        self.timeout_us = timeout_us
        self.timeout_max_us = timeout_max_us
        self.backoff = backoff
        self.reliability = ReliabilityCounters()
        self.delivered: list[int] = []
        self.done = messages == 0  # a pure receiver has nothing to finish
        # Shadow protocol state (from marshalled traffic) for the timer.
        self._base = 0
        self._next = 0
        self._expect = 0
        self._timeout_cur = timeout_us
        self._epoch = 0
        self._armed: int | None = None
        self._recovery_start: float | None = None
        self._progress = False
        self.rx_ack = QueueWriter(["Ack"])
        self.rx_data = QueueWriter(["Data"])
        self.rx_timeout = QueueWriter(["Timeout"])
        self._attach_machine(_compile_runtime(window, messages, variant), {
            "sToWireC": CallbackReader(["Data"], self._on_data_out),
            "rToWireC": CallbackReader(["Ack"], self._on_ack_out),
            "monC": CallbackReader(["Deliver"], self._on_deliver),
            "sDoneC": CallbackReader(["Done"], self._on_done),
            "sFromWireC": self.rx_ack,
            "rFromWireC": self.rx_data,
            "timeoutC": self.rx_timeout,
        }, engine)
        self.heap_baseline = self.machine.heap.live_count()

    # -- ESP -> device (marshalling helpers) ------------------------------------

    def _on_data_out(self, _entry: str, args: tuple) -> None:
        seq, val = args
        if seq >= self._next:
            self.reliability.data_sent += 1
            self._next = seq + 1
        else:
            self.reliability.retransmissions += 1
        pkt = retrans_data_packet(self.node_id, self.peer, seq, val,
                                  self.chunk_bytes)
        self._actions.append(
            FirmwareAction("net_send", payload=pkt, nbytes=self.chunk_bytes)
        )

    def _on_ack_out(self, _entry: str, args: tuple) -> None:
        (ackno,) = args
        self.reliability.acks_sent += 1
        self._actions.append(
            FirmwareAction(
                "net_send",
                payload=retrans_ack_packet(self.node_id, self.peer, ackno),
                nbytes=0,
            )
        )

    def _on_deliver(self, _entry: str, args: tuple) -> None:
        (val,) = args
        index = len(self.delivered)
        self.delivered.append(val)
        self.reliability.delivered += 1
        self._expect += 1
        self._actions.append(
            FirmwareAction("notify", payload={"val": val, "index": index})
        )

    def _on_done(self, _entry: str, _args: tuple) -> None:
        self.done = True
        self._actions.append(
            FirmwareAction("notify", payload={"done": True,
                                              "messages": self.messages})
        )

    # -- device -> ESP -----------------------------------------------------------

    def _post(self, inp: FirmwareInput) -> None:
        if inp.kind == "packet":
            pkt = inp.payload
            if not csum_ok(pkt):
                self.reliability.corrupt_dropped += 1
                return
            if pkt["type"] == DATA:
                seq = pkt["seq"]
                if seq < self._expect:
                    self.reliability.duplicates_suppressed += 1
                elif seq > self._expect:
                    self.reliability.out_of_order_dropped += 1
                self.rx_data.post("Data", seq, pkt["val"])
            elif pkt["type"] == ACK:
                self.reliability.acks_received += 1
                ackno = pkt["ack"]
                if ackno + 1 > self._base:
                    self._base = ackno + 1
                    self._progress = True
                self.rx_ack.post("Ack", ackno)
        elif inp.kind == "timer":
            self._on_timer(inp.payload)
        # Any other input (e.g. the harness's start kick) just runs a
        # quantum; the interpreter does whatever became possible.

    def _in_flight(self) -> int:
        return max(0, self._next - self._base)

    def _on_timer(self, payload) -> None:
        if not (isinstance(payload, tuple) and payload
                and payload[0] == "retrans"):
            return  # a start kick, not a retransmission timer
        epoch = payload[1]
        if epoch != self._armed:
            return  # cancelled (progress was made since it was set)
        self._armed = None
        if self._in_flight() == 0 or self.done:
            return
        self.reliability.timeouts += 1
        if self._recovery_start is None:
            self._recovery_start = self.nic.sim.now
        self._timeout_cur = min(self._timeout_cur * self.backoff,
                                self.timeout_max_us)
        self.rx_timeout.post("Timeout", 0)

    def _after_step(self) -> None:
        if self._progress:
            self._progress = False
            self._timeout_cur = self.timeout_us
            if self._recovery_start is not None:
                self.reliability.record_recovery(
                    self.nic.sim.now - self._recovery_start
                )
                self._recovery_start = None
            self._armed = None  # cancel: next arm uses a fresh epoch
        if self._armed is None and self._in_flight() > 0 and not self.done:
            self._epoch += 1
            self._armed = self._epoch
            self._actions.append(
                FirmwareAction("timer", payload=("retrans", self._epoch),
                               nbytes=self._timeout_cur)
            )


# -- the end-to-end harness -----------------------------------------------------


@dataclass
class FaultyLinkReport:
    """One end-to-end run of the protocol over the faulty link."""

    converged: bool
    time_us: float
    events: int
    messages: tuple[int, int]
    delivered: tuple[list, list]  # payloads delivered at side 0 / side 1
    nics: list[dict]
    wire: dict
    faults: dict
    plan: str

    def expected(self, side: int) -> list[int]:
        """What side ``side`` must have delivered (its peer's stream)."""
        return [i * 10 for i in range(self.messages[1 - side])]

    def exactly_once_in_order(self) -> bool:
        return (self.delivered[0] == self.expected(0)
                and self.delivered[1] == self.expected(1))

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "time_us": round(self.time_us, 6),
            "events": self.events,
            "messages": list(self.messages),
            "delivered": [len(self.delivered[0]), len(self.delivered[1])],
            "exactly_once_in_order": self.exactly_once_in_order(),
            "nics": self.nics,
            "wire": self.wire,
            "faults": self.faults,
            "plan": self.plan,
        }

    def stats_json(self) -> str:
        """Deterministic (byte-identical for identical ``(seed, rates)``
        plans) JSON rendering of the run's counters."""
        return json.dumps(self.as_dict(), sort_keys=True)

    def summary(self) -> str:
        status = "converged" if self.converged else "DID NOT CONVERGE"
        rel = [nic["reliability"] for nic in self.nics]
        retrans = sum(r["retransmissions"] for r in rel)
        injected = sum(sum(per.values()) for per in self.faults.values())
        return (
            f"retransmission over faulty link [{self.plan}]: {status} "
            f"in {self.time_us:.1f} us; "
            f"{sum(self.messages)} messages, {retrans} retransmission(s), "
            f"{injected} injected fault(s)"
        )


def run_over_faulty_link(messages: int = 100, messages_back: int = 0,
                         plan: FaultPlan | None = None, window: int = 8,
                         variant: str = "correct", chunk_bytes: int = 1024,
                         timeout_us: float = 150.0,
                         deadline_us: float | None = None,
                         max_events: int = 10_000_000,
                         cost: CostModel | None = None,
                         engine: str | None = None) -> FaultyLinkReport:
    """Run the retransmission firmware end-to-end over the simulated
    (optionally faulty) link; side 0 pushes ``messages`` payloads,
    side 1 pushes ``messages_back`` the other way.  Both firmwares run
    on ``engine`` (see :func:`repro.runtime.machine.create_machine`).

    The link is the 2-node ``pairwise`` fabric
    (:func:`repro.sim.fabric.run_fabric`), reported per side."""
    # The fabric builds its endpoints from this module's RetransFirmware.
    from repro.sim.fabric import FabricConfig, run_fabric

    report = run_fabric(
        FabricConfig(nodes=2, scenario="pairwise", messages=messages,
                     messages_back=messages_back, window=window,
                     chunk_bytes=chunk_bytes, timeout_us=timeout_us,
                     variant=variant, deadline_us=deadline_us),
        plan=plan, cost=cost, max_events=max_events, engine=engine,
    )
    nic_stats = []
    for side, node in enumerate(report.node_stats):
        (endpoint,) = node["endpoints"]
        nic_stats.append({
            "side": side,
            "sender_done": endpoint["sender_done"],
            "reliability": endpoint["reliability"],
            "heap_live_objects": endpoint["heap_live_objects"],
            "heap_live_baseline": endpoint["heap_live_baseline"],
            "quanta": node["quanta"],
            "timers_set": node["timers_set"],
            "dma_stalls": node["dma_stalls"],
        })
    return FaultyLinkReport(
        converged=report.converged,
        time_us=report.time_us,
        events=report.events,
        messages=(messages, messages_back),
        delivered=(report.delivered[(0, 1)], report.delivered[(1, 0)]),
        nics=nic_stats,
        wire=report.network,
        faults=report.faults,
        plan=report.plan,
    )
