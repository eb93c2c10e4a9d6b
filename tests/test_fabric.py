"""The fabric determinism + conformance battery (ISSUE 10).

Three contracts lock the N-node fabric down:

1. **Degenerate-case conformance** — at N=2 the fabric runs the legacy
   point-to-point :class:`~repro.sim.network.Wire` with one verified
   endpoint per node, and every per-node counter (reliability,
   delivered payloads, wire/fault stats, quanta, timers, heap
   occupancy, event count) matches ``run_over_faulty_link`` exactly.
2. **Determinism** — one ``(config, plan)`` pair yields byte-identical
   ``stats_json`` across repeated runs, at every node count, through
   the CLI included.
3. **Batch-size independence** — checking convergence once per batch
   of events may only change *when* convergence is observed
   (wall-clock fields); every counter is identical to checking before
   every event (``batch_events=1``).  And batching pays: at 64 nodes
   the default batch of 128 processes >= 2x the events/sec of a batch
   of 1, with a flood firmware that keeps interpretation out of it.

Plus the conservation property: under random topologies x random fault
plans, every injected payload is delivered exactly once and in order,
and the switch's buffer accounting reconciles to zero.
"""

import dataclasses
import json
import time

import pytest
from hypothesis import given, settings

from repro.sim.events import Simulator
from repro.sim.fabric import FabricConfig, build_flows, run_fabric
from repro.sim.faults import FaultPlan
from repro.sim.nic import NIC, FirmwareAction, FirmwareBase, FirmwareInput
from repro.sim.switch import Switch
from repro.sim.timing import CostModel
from repro.tools.cli import main as espc_main
from repro.vmmc.retransmission import run_over_faulty_link
from tests.strategies import fault_plans, topologies

_ALL_FAULTS = FaultPlan(seed=77, drop=0.05, dup=0.02, reorder=0.01,
                        delay=0.05, corrupt=0.01, dma_stall=0.01)

# Wall-clock report fields that legitimately depend on the batch size
# (batched convergence detection may overshoot by one batch).
_TIME_FIELDS = ("time_us", "converged_at_us", "goodput_mb_s")


def _counters(report_dict: dict) -> dict:
    return {k: v for k, v in report_dict.items() if k not in _TIME_FIELDS}


# -- 1. the degenerate 2-node case reproduces the legacy harness ---------------


def _assert_matches_legacy(fabric, legacy) -> None:
    assert fabric.converged and legacy.converged
    assert fabric.events == legacy.events
    assert fabric.delivered[(1, 0)] == legacy.delivered[1]
    assert fabric.delivered[(0, 1)] == legacy.delivered[0]
    assert fabric.network == legacy.wire
    assert fabric.faults == legacy.faults
    for side in (0, 1):
        legacy_nic = legacy.nics[side]
        node = fabric.node_stats[side]
        (endpoint,) = node["endpoints"]
        assert endpoint["reliability"] == legacy_nic["reliability"]
        assert endpoint["sender_done"] == legacy_nic["sender_done"]
        assert endpoint["delivered"] == len(legacy.delivered[side])
        assert endpoint["heap_live_objects"] == legacy_nic["heap_live_objects"]
        assert endpoint["heap_live_baseline"] == legacy_nic["heap_live_baseline"]
        assert node["quanta"] == legacy_nic["quanta"]
        assert node["timers_set"] == legacy_nic["timers_set"]
        assert node["dma_stalls"] == legacy_nic["dma_stalls"]
        assert node["stray_packets"] == 0


def test_two_node_fabric_matches_legacy_wire_under_faults():
    legacy = run_over_faulty_link(messages=30, messages_back=10,
                                  plan=_ALL_FAULTS)
    fabric = run_fabric(
        FabricConfig(nodes=2, scenario="pairwise", messages=30,
                     messages_back=10),
        plan=_ALL_FAULTS,
    )
    _assert_matches_legacy(fabric, legacy)


def test_two_node_fabric_matches_legacy_per_event_including_clock():
    # With a convergence check before every event (batch_events=1)
    # even the wall clock is identical: the fabric harness is the
    # legacy harness at N=2.
    legacy = run_over_faulty_link(messages=20, messages_back=5,
                                  plan=_ALL_FAULTS)
    fabric = run_fabric(
        FabricConfig(nodes=2, scenario="pairwise", messages=20,
                     messages_back=5, batch_events=1),
        plan=_ALL_FAULTS,
    )
    _assert_matches_legacy(fabric, legacy)
    assert fabric.time_us == legacy.time_us
    assert fabric.converged_at_us < legacy.time_us


@pytest.mark.slow
def test_two_node_fabric_matches_legacy_soak():
    """The bidirectional lossy soak, run through both harnesses: the
    fabric must reproduce the legacy counters payload for payload."""
    plan = FaultPlan(seed=42, drop=0.05)
    legacy = run_over_faulty_link(messages=1500, messages_back=1500,
                                  plan=plan)
    fabric = run_fabric(
        FabricConfig(nodes=2, scenario="pairwise", messages=1500,
                     messages_back=1500),
        plan=plan,
    )
    _assert_matches_legacy(fabric, legacy)
    for side in (0, 1):
        rel = fabric.node_stats[side]["endpoints"][0]["reliability"]
        assert rel["data_sent"] == 1500
        assert rel["delivered"] == 1500
        assert rel["retransmissions"] > 0


# -- 2. determinism: same seed, byte-identical stats ----------------------------


@pytest.mark.parametrize("nodes", [2, 4, 8, 16])
def test_same_seed_byte_identical_stats_across_node_counts(nodes):
    plan = FaultPlan(seed=9, drop=0.03, dup=0.01, delay=0.02)
    scenario = "pairwise" if nodes == 2 else "incast"
    config = FabricConfig(nodes=nodes, scenario=scenario, messages=3)
    first = run_fabric(config, plan=plan)
    second = run_fabric(config, plan=plan)
    assert first.converged, first.summary()
    assert first.stats_json() == second.stats_json()


def test_different_seeds_diverge():
    plan_a = FaultPlan(seed=9, drop=0.05, delay=0.05)
    plan_b = FaultPlan(seed=10, drop=0.05, delay=0.05)
    config = FabricConfig(nodes=4, scenario="incast", messages=4)
    assert (run_fabric(config, plan=plan_a).stats_json()
            != run_fabric(config, plan=plan_b).stats_json())


def test_cli_stats_json_byte_identical(capsys):
    argv = ["sim", "--topology", "4", "--scenario", "incast", "--seed", "5",
            "--messages", "3", "--faults", "9:drop=0.03,delay=0.02",
            "--stats-json"]
    assert espc_main(argv) == 0
    first = capsys.readouterr().out
    assert espc_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["converged"] and payload["exactly_once_in_order"]
    assert payload["nodes"] == 4 and payload["scenario"] == "incast"


# -- 3. batch-size independence -------------------------------------------------


@pytest.mark.parametrize("scenario,nodes", [("incast", 6), ("churn", 4)])
def test_batched_and_per_event_agree_on_every_counter(scenario, nodes):
    plan = FaultPlan(seed=13, drop=0.04, dup=0.02, corrupt=0.01)
    base = FabricConfig(nodes=nodes, scenario=scenario, messages=3, seed=2)
    batched = run_fabric(base, plan=plan)
    per_event = run_fabric(dataclasses.replace(base, batch_events=1),
                           plan=plan)
    assert batched.converged and per_event.converged
    assert batched.events == per_event.events
    batched_dict = _counters(batched.as_dict())
    per_event_dict = _counters(per_event.as_dict())
    assert batched_dict.pop("batch_events") == 128
    assert per_event_dict.pop("batch_events") == 1
    assert batched_dict == per_event_dict


# -- 3b. batching pays: the dispatch speed gate ----------------------------------

DISPATCH_MIN_SPEEDUP = 2.0


class _FloodFirmware(FirmwareBase):
    """O(1)-per-quantum firmware: every input forwards one fixed-size
    packet to a rotating destination until the hop budget is spent.
    The handler is trivial, so a run's cost is the event queue, the
    switch and the convergence predicate, not firmware work."""

    def __init__(self, node: int, nodes: int, hops: int):
        self.node = node
        self.nodes = nodes
        self.hops_left = hops
        self.received = 0

    def remaining(self) -> int:
        return self.hops_left

    def step(self, inputs):
        actions = []
        for inp in inputs:
            if inp.kind == "packet":
                self.received += 1
            if self.hops_left > 0:
                self.hops_left -= 1
                dest = (self.node + 1 + self.received) % self.nodes
                actions.append(FirmwareAction(
                    "net_send",
                    payload={"src": self.node, "dest": dest, "nbytes": 64},
                    nbytes=64))
        return 100.0 * len(inputs), actions


def _flood_run(batch_events: int, nodes: int, hops: int):
    """Events processed, wall seconds and per-node receive counts of
    one flood over a ``nodes``-port switch."""
    sim = Simulator(batch_events=batch_events)
    cost = CostModel()
    switch = Switch(sim, cost, nodes)
    firmwares = []
    for node in range(nodes):
        firmware = _FloodFirmware(node, nodes, hops)
        nic = NIC(sim, cost, node, firmware)
        nic.wire = switch
        switch.attach(node, nic)
        firmwares.append(firmware)
        nic.deliver_input(FirmwareInput("timer", ("start",)))

    def complete() -> bool:
        # A global progress predicate without short-circuit exits, the
        # natural way to write a completion check over every node.
        return (sum(fw.remaining() for fw in firmwares) == 0
                and switch.quiescent())

    start = time.perf_counter()
    assert sim.run_until(complete, max_events=50_000_000)
    elapsed = time.perf_counter() - start
    return sim.events_processed, elapsed, [fw.received for fw in firmwares]


def test_batched_dispatch_doubles_events_per_second():
    """At 64 nodes, checking convergence once per batch of 128 events
    must process >= 2x the events/sec of checking before every event
    (best of three runs each), over the same event sequence."""
    batched = FabricConfig().batch_events
    rates = {1: 0.0, batched: 0.0}
    runs = {}
    for _ in range(3):
        for batch in rates:
            events, elapsed, received = _flood_run(batch, 64, 100)
            rates[batch] = max(rates[batch], events / elapsed)
            runs[batch] = (events, received)
    # Same per-node deliveries; the event counts differ by at most one
    # batch of convergence-detection overshoot.
    assert runs[1][1] == runs[batched][1]
    assert 0 <= runs[batched][0] - runs[1][0] <= batched
    speedup = rates[batched] / rates[1]
    assert speedup >= DISPATCH_MIN_SPEEDUP, (
        f"batch_events={batched} reaches {speedup:.2f}x the events/sec of "
        f"batch_events=1 (gate {DISPATCH_MIN_SPEEDUP}x)")


# -- scenario families converge cleanly ------------------------------------------


@pytest.mark.parametrize("scenario,nodes", [
    ("pairwise", 6),
    ("all_to_all", 4),
    ("hot_receiver", 5),
    ("churn", 6),
])
def test_scenarios_deliver_exactly_once_in_order(scenario, nodes):
    report = run_fabric(
        FabricConfig(nodes=nodes, scenario=scenario, messages=3,
                     messages_back=2, seed=4),
        plan=FaultPlan(seed=21, drop=0.03, dup=0.01),
    )
    assert report.converged, report.summary()
    assert report.exactly_once_in_order()
    for node in report.node_stats:
        assert node["stray_packets"] == 0
        for endpoint in node["endpoints"]:
            assert endpoint["heap_live_objects"] == endpoint["heap_live_baseline"]


def test_build_flows_shapes():
    assert len(build_flows(FabricConfig(nodes=8, scenario="incast"))) == 7
    assert len(build_flows(FabricConfig(nodes=8, scenario="all_to_all"))) == 56
    assert len(build_flows(FabricConfig(nodes=6, scenario="pairwise"))) == 3
    hot = build_flows(FabricConfig(nodes=6, scenario="hot_receiver"))
    assert len(hot) == 10  # 5 incast + 5-node ring
    churn = build_flows(FabricConfig(nodes=6, scenario="churn", seed=1))
    assert len(churn) > 3  # pairwise base + extra staggered flows
    assert any(f.start_us > 0 for f in churn)
    # Flow selection is seed-deterministic.
    assert churn == build_flows(FabricConfig(nodes=6, scenario="churn", seed=1))
    assert churn != build_flows(FabricConfig(nodes=6, scenario="churn", seed=2))


# -- the conservation property ---------------------------------------------------


@given(topologies(), fault_plans())
@settings(max_examples=15, deadline=None)
def test_conservation_under_random_topologies(config, plan):
    report = run_fabric(config, plan=plan)
    assert report.converged, report.summary()
    # Every injected payload arrived exactly once, in order.
    assert report.exactly_once_in_order()
    network = report.network
    if "switch" in network:
        switch = network["switch"]
        # Everything routed was either queued for egress or dropped to
        # congestion — and the buffer accounting returned to zero.
        enqueued = sum(network[f"down{i}"]["enqueued"]
                       for i in range(config.nodes))
        sent = sum(network[f"down{i}"]["sent"] for i in range(config.nodes))
        assert switch["routed"] == enqueued + switch["congestion_drops"]
        assert enqueued == sent  # nothing left inside the switch
        assert switch["buffer_used"] == 0
        assert switch["misrouted"] == 0
    # No ESP heap leaks at quiescence on any node.
    for node in report.node_stats:
        for endpoint in node["endpoints"]:
            assert endpoint["heap_live_objects"] == endpoint["heap_live_baseline"]


# -- the 64-node soak -------------------------------------------------------------


@pytest.mark.slow
def test_soak_64_node_incast_under_loss():
    """The acceptance scenario at full width: 64 nodes, lossy links,
    congestion at the hot port — converge, deliver exactly once, and
    reconcile the switch accounting."""
    report = run_fabric(
        FabricConfig(nodes=64, scenario="incast", messages=8,
                     seed=7),
        plan=FaultPlan(seed=42, drop=0.03, delay=0.02),
    )
    assert report.converged, report.summary()
    assert report.exactly_once_in_order()
    switch = report.network["switch"]
    assert switch["buffer_used"] == 0
    assert switch["routed"] > 0
    # Determinism holds at width: a second run is byte-identical.
    again = run_fabric(
        FabricConfig(nodes=64, scenario="incast", messages=8, seed=7),
        plan=FaultPlan(seed=42, drop=0.03, delay=0.02),
    )
    assert report.stats_json() == again.stats_json()
