"""An N-node switched fabric running verified retransmission firmware.

The paper validates ESP firmware on one VMMC link between two hosts;
this module composes the same verified §5.3 go-back-N protocol into a
cluster: N NICs around a shared-buffer switch
(:class:`repro.sim.switch.Switch`), each running one
:class:`FabricNodeFirmware` that multiplexes a *verified retransmission
endpoint* (:class:`repro.vmmc.retransmission.RetransFirmware`, built
through the same ``create_machine``/``create_scheduler`` factories) per
peer it talks to.  Traffic is described by :class:`Flow`\\ s, grouped
into scenario families:

* ``pairwise``     — disjoint pairs ``(0,1), (2,3), ...``, the 2-node
  protocol tiled across the fabric (at N=2 this *is* the point-to-point
  link);
* ``incast``       — every other node sends to node 0, the classic
  congestion collapse driver for the shared buffer;
* ``all_to_all``   — every ordered pair carries a flow;
* ``hot_receiver`` — incast onto node 0 *plus* a ring over the
  remaining nodes, checking the hot port cannot starve bystander
  flows;
* ``churn``        — pairwise background traffic plus extra flows with
  staggered start times drawn from a string-seeded RNG.

Determinism contract: one ``(config, fault plan)`` pair yields
byte-identical :meth:`FabricReport.stats_json` on every run, at every
node count, because all randomness is string-seeded
(``esp-fabric/<seed>/...`` for flow selection, the fault plan's own
streams per link) and the event queue is a strict (time, insertion)
order.  Convergence is checked before every event, so
``converged_at_us`` is the time of the event that completed the last
flow.  The check is O(1): :class:`FabricNodeFirmware` counts an
endpoint down when the step that ran it leaves its sender done and its
peer's payloads all delivered.

N=2 is the paper's two-node link: the node firmware holds exactly one
endpoint, the network is the point-to-point
:class:`repro.sim.network.Wire`, and
:func:`repro.vmmc.retransmission.run_over_faulty_link` is this harness
at ``nodes=2, scenario="pairwise"``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.sim.events import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.host import Host
from repro.sim.network import Wire
from repro.sim.nic import NIC, FirmwareAction, FirmwareBase, FirmwareInput
from repro.sim.switch import Switch, SwitchConfig
from repro.sim.timing import CostModel
from repro.vmmc.retransmission import RetransFirmware


@dataclass(frozen=True)
class Flow:
    """One unidirectional stream: ``messages`` payloads from ``src``'s
    verified sender to ``dst``'s receiver, starting at ``start_us``."""

    src: int
    dst: int
    messages: int
    start_us: float = 0.0


def _flows_pairwise(config: "FabricConfig") -> list[Flow]:
    flows = []
    for a in range(0, config.nodes - 1, 2):
        flows.append(Flow(a, a + 1, config.messages))
        if config.messages_back:
            flows.append(Flow(a + 1, a, config.messages_back))
    return flows


def _flows_incast(config: "FabricConfig") -> list[Flow]:
    return [Flow(src, 0, config.messages)
            for src in range(1, config.nodes)]


def _flows_all_to_all(config: "FabricConfig") -> list[Flow]:
    return [Flow(src, dst, config.messages)
            for src in range(config.nodes)
            for dst in range(config.nodes) if dst != src]


def _flows_hot_receiver(config: "FabricConfig") -> list[Flow]:
    ring = list(range(1, config.nodes))
    flows = _flows_incast(config)
    for i, src in enumerate(ring):
        flows.append(Flow(src, ring[(i + 1) % len(ring)], config.messages))
    return flows


def _flows_churn(config: "FabricConfig") -> list[Flow]:
    flows = _flows_pairwise(config)
    taken = {(f.src, f.dst) for f in flows}
    rng = random.Random(f"esp-fabric/{config.seed}/churn")
    extra = (config.churn_flows if config.churn_flows is not None
             else config.nodes)
    messages = (config.churn_messages if config.churn_messages is not None
                else config.messages)
    attempts = 0
    while extra > 0 and attempts < 100 * config.nodes:
        attempts += 1
        src = rng.randrange(config.nodes)
        dst = rng.randrange(config.nodes)
        if src == dst or (src, dst) in taken:
            continue
        taken.add((src, dst))
        start = round(rng.random() * config.churn_span_us, 3)
        flows.append(Flow(src, dst, messages, start_us=start))
        extra -= 1
    return flows


SCENARIOS = {
    "pairwise": _flows_pairwise,
    "incast": _flows_incast,
    "all_to_all": _flows_all_to_all,
    "hot_receiver": _flows_hot_receiver,
    "churn": _flows_churn,
}


@dataclass(frozen=True)
class FabricConfig:
    """One fabric run, fully determined (together with an optional
    :class:`~repro.sim.faults.FaultPlan`) by its field values."""

    nodes: int = 4
    scenario: str = "pairwise"
    messages: int = 8
    messages_back: int = 0
    seed: int = 0
    window: int = 8
    chunk_bytes: int = 1024
    timeout_us: float = 150.0
    variant: str = "correct"
    churn_flows: int | None = None
    churn_messages: int | None = None
    churn_span_us: float = 5_000.0
    switch: SwitchConfig = field(default_factory=SwitchConfig)
    deadline_us: float | None = None

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError(f"a fabric needs >= 2 nodes, got {self.nodes}")
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of "
                f"{sorted(SCENARIOS)}"
            )
        if self.scenario == "hot_receiver" and self.nodes < 3:
            raise ValueError("hot_receiver needs >= 3 nodes "
                             "(a ring over the non-hot nodes)")
        if self.messages < 1:
            raise ValueError(f"messages must be >= 1, got {self.messages}")
        if self.messages_back < 0:
            raise ValueError("messages_back must be >= 0")


def build_flows(config: FabricConfig) -> list[Flow]:
    """The scenario's flow list, deduplicated by (src, dst) — parallel
    flows between the same pair merge into one endpoint's stream."""
    merged: dict[tuple[int, int], Flow] = {}
    for flow in SCENARIOS[config.scenario](config):
        key = (flow.src, flow.dst)
        prior = merged.get(key)
        if prior is None:
            merged[key] = flow
        else:
            merged[key] = replace(
                prior,
                messages=prior.messages + flow.messages,
                start_us=min(prior.start_us, flow.start_us),
            )
    return list(merged.values())


class FabricNodeFirmware(FirmwareBase):
    """One node's firmware: a verified retransmission endpoint per
    peer, multiplexed behind the single NIC CPU.

    Routing is the only logic this wrapper adds — the protocol state
    machines are the untouched verified endpoints:

    * incoming packets route by their ``src`` field to the endpoint for
      that peer (``src``/``dest`` are never corrupted by the fault
      injector, so routing cannot be fooled — a corrupted payload still
      reaches the right endpoint's checksum check);
    * endpoint timer actions are wrapped as ``("flow", peer, inner)``
      so the expiry finds its way back to the owning endpoint;
    * the power-on kick broadcasts to every endpoint already due to
      start; staggered (churn) endpoints get their own scheduled kick.

    Cycles are the sum of the endpoints that ran in the quantum — one
    CPU, run-to-completion, exactly the 2-node model.  With a single
    endpoint this class is behaviourally identical to running the
    endpoint as the NIC firmware directly.

    ``peers`` maps each peer to ``(messages to send, start time,
    messages to receive)``.  An endpoint is *finished* once its sender
    is done and every payload its peer sends has been delivered; only
    :meth:`step` can make it so, and it calls ``on_finished`` once for
    each endpoint it finishes.
    """

    def __init__(self, cost: CostModel, node_id: int,
                 peers: dict[int, tuple[int, float, int]],
                 window: int = 8, variant: str = "correct",
                 chunk_bytes: int = 1024, timeout_us: float = 150.0,
                 engine: str | None = None,
                 on_finished: Callable[[], None] = lambda: None):
        self.cost = cost
        self.node_id = node_id
        self.name = f"fabric-node[{variant}]"
        self.endpoints: dict[int, RetransFirmware] = {}
        self.start_us: dict[int, float] = {}
        # Unfinished endpoints: peer -> payloads that peer sends here.
        self.awaiting: dict[int, int] = {}
        self.on_finished = on_finished
        for peer in sorted(peers):
            messages, start_us, receive = peers[peer]
            self.endpoints[peer] = RetransFirmware(
                cost, node_id, messages=messages, window=window,
                variant=variant, chunk_bytes=chunk_bytes,
                timeout_us=timeout_us, peer=peer, engine=engine,
            )
            self.start_us[peer] = start_us
            if messages or receive:
                self.awaiting[peer] = receive
        self.stray_packets = 0

    def attach(self, nic) -> None:
        self.nic = nic
        for endpoint in self.endpoints.values():
            endpoint.attach(nic)

    @property
    def done(self) -> bool:
        return all(ep.done for ep in self.endpoints.values())

    # -- input demultiplexing -----------------------------------------------------

    def _route(self, inp: FirmwareInput):
        if inp.kind == "packet":
            src = inp.payload.get("src")
            if src in self.endpoints:
                yield src, inp
            else:
                self.stray_packets += 1
            return
        if inp.kind == "timer":
            payload = inp.payload
            if (isinstance(payload, tuple) and payload
                    and payload[0] == "flow"):
                peer = payload[1]
                if peer in self.endpoints:
                    yield peer, FirmwareInput("timer", payload[2])
                return
            # The power-on kick: every endpoint due from time zero.
            for peer, endpoint in self.endpoints.items():
                if self.start_us[peer] <= 0.0:
                    yield peer, inp
            return
        # Host requests / DMA completions are not part of this
        # workload; deliver to every endpoint so nothing is silently
        # swallowed if a future scenario adds them.
        for peer in self.endpoints:
            yield peer, inp

    def step(self, inputs: list[FirmwareInput]):
        buckets: dict[int, list[FirmwareInput]] = {}
        order: list[int] = []
        for inp in inputs:
            for peer, routed in self._route(inp):
                bucket = buckets.get(peer)
                if bucket is None:
                    buckets[peer] = bucket = []
                    order.append(peer)
                bucket.append(routed)
        cycles = 0.0
        actions: list[FirmwareAction] = []
        awaiting = self.awaiting
        for peer in order:
            endpoint = self.endpoints[peer]
            ep_cycles, ep_actions = endpoint.step(buckets[peer])
            receive = awaiting.get(peer)
            if (receive is not None and endpoint.done
                    and len(endpoint.delivered) >= receive):
                del awaiting[peer]
                self.on_finished()
            cycles += ep_cycles
            for action in ep_actions:
                if action.kind == "timer":
                    action = FirmwareAction(
                        "timer", payload=("flow", peer, action.payload),
                        nbytes=action.nbytes,
                    )
                actions.append(action)
        return cycles, actions


@dataclass
class FabricReport:
    """One end-to-end fabric run.

    ``stats_json`` is byte-identical across runs of the same
    ``(config, plan)``.
    """

    converged: bool
    time_us: float
    converged_at_us: float
    events: int
    config: FabricConfig
    flows: list[Flow]
    delivered: dict[tuple[int, int], list]  # (dst, src) -> payload log
    node_stats: list[dict]
    network: dict
    faults: dict
    plan: str

    def expected(self, flow: Flow) -> list[int]:
        return [i * 10 for i in range(flow.messages)]

    def flow_delivered(self, flow: Flow) -> list:
        return self.delivered[(flow.dst, flow.src)]

    def exactly_once_in_order(self) -> bool:
        return all(self.flow_delivered(f) == self.expected(f)
                   for f in self.flows)

    def total_messages(self) -> int:
        return sum(f.messages for f in self.flows)

    def goodput_mb_s(self) -> float:
        """Aggregate delivered payload bytes over the converged span
        (bytes/us == MB/s)."""
        delivered = sum(len(log) for log in self.delivered.values())
        span = self.converged_at_us if self.converged_at_us > 0 else self.time_us
        if span <= 0:
            return 0.0
        return delivered * self.config.chunk_bytes / span

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "time_us": round(self.time_us, 6),
            "converged_at_us": round(self.converged_at_us, 6),
            "goodput_mb_s": round(self.goodput_mb_s(), 6),
            "events": self.events,
            "nodes": self.config.nodes,
            "scenario": self.config.scenario,
            "seed": self.config.seed,
            "messages_total": self.total_messages(),
            "exactly_once_in_order": self.exactly_once_in_order(),
            "flows": [
                {
                    "src": f.src,
                    "dst": f.dst,
                    "messages": f.messages,
                    "start_us": round(f.start_us, 6),
                    "delivered": len(self.flow_delivered(f)),
                    "in_order": self.flow_delivered(f) == self.expected(f),
                }
                for f in self.flows
            ],
            "node_stats": self.node_stats,
            "network": self.network,
            "faults": self.faults,
            "plan": self.plan,
        }

    def stats_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    def summary(self) -> str:
        status = "converged" if self.converged else "DID NOT CONVERGE"
        retrans = sum(
            ep["reliability"]["retransmissions"]
            for node in self.node_stats for ep in node["endpoints"]
        )
        drops = self.network.get("switch", {}).get("congestion_drops", 0)
        return (
            f"fabric[{self.config.scenario} x{self.config.nodes}, "
            f"{self.plan}]: {status} at {self.converged_at_us:.1f} us; "
            f"{self.total_messages()} messages over {len(self.flows)} "
            f"flow(s), {retrans} retransmission(s), "
            f"{drops} congestion drop(s), "
            f"{self.goodput_mb_s():.2f} MB/s goodput"
        )


def run_fabric(config: FabricConfig, plan: FaultPlan | None = None,
               cost: CostModel | None = None,
               max_events: int = 50_000_000,
               engine: str | None = None) -> FabricReport:
    """Run one fabric scenario end-to-end, every endpoint on ``engine``;
    at N=2 the nodes share a point-to-point wire instead of a switch."""
    cost = cost or CostModel()
    flows = sorted(build_flows(config), key=lambda f: (f.src, f.dst))
    sim = Simulator()
    session = plan.start() if plan is not None else None

    # Every (node, peer) an endpoint must exist for — both ends of
    # every flow — as (messages to send, start time, messages to
    # receive).
    peers: dict[int, dict[int, tuple[int, float, int]]] = {
        node: {} for node in range(config.nodes)
    }
    for flow in flows:
        receive = peers[flow.src].get(flow.dst, (0, 0.0, 0))[2]
        peers[flow.src][flow.dst] = (flow.messages, flow.start_us, receive)
        send, start_us, _ = peers[flow.dst].get(flow.src, (0, 0.0, 0))
        peers[flow.dst][flow.src] = (send, start_us, flow.messages)

    if config.nodes == 2:
        network = Wire(sim, cost, faults=session)
    else:
        network = Switch(sim, cost, config.nodes, config=config.switch,
                         faults=session)

    # Endpoints not yet finished, across the fabric: the convergence
    # check before every event is one comparison.
    unfinished = 0

    def finished() -> None:
        nonlocal unfinished
        unfinished -= 1

    firmwares, nics, hosts = [], [], []
    for node in range(config.nodes):
        firmware = FabricNodeFirmware(
            cost, node, peers[node], window=config.window,
            variant=config.variant, chunk_bytes=config.chunk_bytes,
            timeout_us=config.timeout_us, engine=engine,
            on_finished=finished,
        )
        unfinished += len(firmware.awaiting)
        nic = NIC(sim, cost, node, firmware, faults=session)
        nic.wire = network
        network.attach(node, nic)
        hosts.append(Host(sim, cost, nic))
        firmwares.append(firmware)
        nics.append(nic)

    max_start = 0.0
    for node, nic in enumerate(nics):
        # The power-on kick (endpoints starting at time zero) ...
        nic.deliver_input(FirmwareInput("timer", ("start",)))
        # ... and a scheduled kick per staggered (churn) endpoint.
        firmware = firmwares[node]
        for peer in sorted(firmware.endpoints):
            start_us = firmware.start_us[peer]
            if start_us > 0.0:
                max_start = max(max_start, start_us)
                sim.at(start_us, nic.deliver_input,
                       FirmwareInput("timer", ("flow", peer, ("start",))))

    deadline_us = config.deadline_us
    if deadline_us is None:
        # Generous: every message can afford several full timeouts.
        deadline_us = (50_000.0 + 2_000.0 * sum(f.messages for f in flows)
                       + max_start)

    converged = sim.run_until(lambda: unfinished == 0,
                              max_events=max_events, until_us=deadline_us)
    converged_at = sim.now
    if converged:
        # Drain in-flight timers/acks so leak checks see quiescence.
        timeout_max = max(ep.timeout_max_us for fw in firmwares
                          for ep in fw.endpoints.values())
        sim.run_until(lambda: sim.pending() == 0, max_events=max_events,
                      until_us=sim.now + 10 * timeout_max)

    node_stats = []
    for node, (nic, firmware) in enumerate(zip(nics, firmwares)):
        node_stats.append({
            "node": node,
            "endpoints": [
                {
                    "peer": peer,
                    "messages": endpoint.messages,
                    "sender_done": endpoint.done,
                    "delivered": len(endpoint.delivered),
                    "reliability": endpoint.reliability.as_dict(),
                    "heap_live_objects": endpoint.machine.heap.live_count(),
                    "heap_live_baseline": endpoint.heap_baseline,
                }
                for peer, endpoint in sorted(firmware.endpoints.items())
            ],
            "stray_packets": firmware.stray_packets,
            "quanta": nic.stats.quanta,
            "timers_set": nic.stats.timers_set,
            "dma_stalls": nic.dma_host.stalls + nic.dma_send.stalls
                          + nic.dma_recv.stalls,
        })
    delivered = {
        (fw.node_id, peer): list(ep.delivered)
        for fw in firmwares for peer, ep in fw.endpoints.items()
    }
    return FabricReport(
        converged=converged,
        time_us=sim.now,
        converged_at_us=converged_at,
        events=sim.events_processed,
        config=config,
        flows=flows,
        delivered=delivered,
        node_stats=node_stats,
        network=network.stats(),
        faults=session.stats.as_dict() if session is not None else {},
        plan=plan.describe() if plan is not None else "none",
    )
