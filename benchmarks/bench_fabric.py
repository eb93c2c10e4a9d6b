"""Fabric scaling and batched-dispatch benchmarks (ISSUE 10).

Two sections, written to ``BENCH_fabric.json`` (keyed by mode, like
BENCH_engine.json; ``ESP_BENCH_SMOKE=1`` runs scaled-down models):

* **scaling** — the §5.3 retransmission firmware under incast at node
  counts 2 -> 64: aggregate goodput, simulator events/sec, simulated
  convergence time, and congestion drops per width.  No gate — this is
  the descriptive table the fabric exists to produce, and its cost is
  dominated by ESP interpretation (each delivered chunk runs the full
  checksum/window firmware), not by event dispatch.

* **dispatch** — convergence checking before every event
  (``batch_events=1``) vs. once per batch of 128 (the fabric's
  default), isolated from interpretation cost: an O(1)-handler flood
  firmware drives the real Switch/NIC/event-queue stack at 64 nodes
  while ``run_until`` polls a global progress predicate (a
  remaining-work sum over every node plus the switch quiescence check
  — the natural way to write a fabric completion predicate, and
  deliberately free of short-circuit exits).  A batch of 1 pays that
  predicate after every event; a batch of 128 amortises it.  Gates:
  the batch of 128 reaches >= 2x events/sec, and both process the
  identical event sequence (same final per-node delivery counters,
  event counts equal up to one batch of convergence-detection
  overshoot).

The gates are enforced only in the full-size run, where the workload
dominates timing noise.
"""

import json
import os
import pathlib
import time

from benchmarks.harness import Table
from repro.sim.events import Simulator
from repro.sim.fabric import FabricConfig, run_fabric
from repro.sim.faults import FaultPlan
from repro.sim.nic import NIC, FirmwareAction, FirmwareBase, FirmwareInput
from repro.sim.switch import Switch
from repro.sim.timing import CostModel

_SMOKE = bool(os.environ.get("ESP_BENCH_SMOKE"))
_BENCH_PATH = pathlib.Path(__file__).with_name("BENCH_fabric.json")

DISPATCH_MIN_SPEEDUP = 2.0
_REPEATS = 1 if _SMOKE else 3
_SCALING_NODES = (2, 4, 8) if _SMOKE else (2, 4, 8, 16, 32, 64)
_FLOOD_NODES = 16 if _SMOKE else 64
_FLOOD_HOPS = 50 if _SMOKE else 400


def _write_rows(section: str, rows: dict) -> None:
    mode = "smoke" if _SMOKE else "full"
    merged = {}
    if _BENCH_PATH.exists():
        merged = json.loads(_BENCH_PATH.read_text())
    merged.setdefault(mode, {})[section] = rows
    _BENCH_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


# -- scaling: the verified firmware across fabric widths ---------------------------


def test_fabric_scaling_table():
    table = Table(
        "Fabric scaling: incast with the verified retransmission firmware",
        ["nodes", "flows", "delivered", "sim us", "goodput MB/s",
         "events", "events/s", "drops"],
    )
    rows = {}
    plan = FaultPlan(seed=11, drop=0.02, delay=0.02)
    messages = 2 if _SMOKE else 4
    for nodes in _SCALING_NODES:
        scenario = "pairwise" if nodes == 2 else "incast"
        config = FabricConfig(nodes=nodes, scenario=scenario,
                              messages=messages, seed=3)
        start = time.perf_counter()
        report = run_fabric(config, plan=plan)
        elapsed = time.perf_counter() - start
        assert report.converged, report.summary()
        assert report.exactly_once_in_order()
        delivered = sum(len(log) for log in report.delivered.values())
        drops = (report.network["switch"]["congestion_drops"]
                 if "switch" in report.network else 0)
        events_per_sec = report.events / max(elapsed, 1e-9)
        rows[f"nodes{nodes}"] = dict(
            nodes=nodes,
            flows=len(report.flows),
            delivered=delivered,
            sim_us=round(report.converged_at_us, 1),
            goodput_mb_s=round(report.goodput_mb_s(), 3),
            events=report.events,
            events_per_sec=round(events_per_sec, 1),
            congestion_drops=drops,
        )
        table.add(nodes, len(report.flows), delivered,
                  round(report.converged_at_us, 1),
                  round(report.goodput_mb_s(), 3), report.events,
                  int(events_per_sec), drops)
    table.note("incast concentrates every flow on node 0's port; "
               "goodput saturates there while events grow with width")
    table.show()
    _write_rows("scaling", rows)


# -- dispatch: batched convergence checking, isolated from the interpreter ---------


class _FloodFirmware(FirmwareBase):
    """O(1)-per-quantum firmware: every input forwards one fixed-size
    packet to a rotating destination until the hop budget is spent.
    The handler is deliberately trivial so the run's cost is the event
    queue + switch + the convergence predicate, not firmware work."""

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
        # The global progress predicate: no short-circuit, like any
        # progress-monitoring completion check over all-node state.
        return (sum(fw.remaining() for fw in firmwares) == 0
                and switch.quiescent())

    start = time.perf_counter()
    converged = sim.run_until(complete, max_events=50_000_000)
    elapsed = time.perf_counter() - start
    assert converged
    counters = [fw.received for fw in firmwares]
    return sim.events_processed, elapsed, counters


def test_dispatch_speedup_gate():
    batched = FabricConfig().batch_events
    table = Table(
        f"Dispatch batch sizes at {_FLOOD_NODES} nodes (flood firmware)",
        ["batch_events", "events", "wall s", "events/s"],
    )
    best = {}
    shape = {}
    for batch in (1, batched):
        best_rate = 0.0
        for _ in range(_REPEATS):  # best-of-N damps scheduler noise
            run_events, elapsed, run_counters = _flood_run(
                batch, _FLOOD_NODES, _FLOOD_HOPS)
            best_rate = max(best_rate, run_events / max(elapsed, 1e-9))
            shape[batch] = (run_events, run_counters)
        best[batch] = best_rate
        table.add(batch, shape[batch][0],
                  round(shape[batch][0] / best_rate, 3), int(best_rate))
    # Both batch sizes ran the identical event sequence: same per-node
    # delivery counters, event counts equal up to one batch of
    # convergence-detection overshoot.
    assert shape[1][1] == shape[batched][1]
    overshoot = shape[batched][0] - shape[1][0]
    assert 0 <= overshoot <= batched

    speedup = best[batched] / best[1]
    table.note(f"speedup {speedup:.2f}x — gate: batch_events={batched} >= "
               f"{DISPATCH_MIN_SPEEDUP}x events/sec "
               f"({'advisory in smoke mode' if _SMOKE else 'enforced'})")
    table.show()
    _write_rows("dispatch", dict(
        nodes=_FLOOD_NODES,
        hops=_FLOOD_HOPS,
        per_event_events=shape[1][0],
        batched_events=shape[batched][0],
        per_event_events_per_sec=round(best[1], 1),
        batched_events_per_sec=round(best[batched], 1),
        speedup=round(speedup, 2),
    ))
    if not _SMOKE:
        assert speedup >= DISPATCH_MIN_SPEEDUP, (
            f"batch_events={batched} speedup {speedup:.2f}x below "
            f"{DISPATCH_MIN_SPEEDUP}x gate")
