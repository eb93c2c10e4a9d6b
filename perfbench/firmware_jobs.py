"""The ``firmware`` workload: simulation jobs on the NIC substrate and
Fig. 5-shaped ESP programs on the native engine.  Outputs are checked
by delivery (every message arrives, exactly once and in order) and,
for the native programs, against the AST walker's output."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.api import compile_source
from repro.runtime.machine import create_machine
from repro.runtime.scheduler import create_scheduler
from repro.sim.fabric import FabricConfig, run_fabric
from repro.sim.faults import FaultPlan
from repro.vmmc.retransmission import run_over_faulty_link
from repro.vmmc.workloads import (
    bidirectional_bandwidth,
    one_way_bandwidth,
    pingpong_latency,
)

import programs

FIG5 = {
    "pingpong": (pingpong_latency, 30),  # default rounds
    "one_way": (one_way_bandwidth, 40),  # default messages
    "bidirectional": (bidirectional_bandwidth, 80),  # 40 each way
}
FIG5_SIZES = (4, 1024, 65536)
IMPLS = {"esp": "esp", "orig": "baseline", "orig_nofast": "baseline"}

# The fault plan of every fabric job (and of sim_fabric_goodput_mb_s).
FABRIC_PLAN = FaultPlan(seed=11, drop=0.02, delay=0.02)
FABRIC_JOBS = (("incast", 64), ("incast", 16), ("all_to_all", 8),
               ("hot_receiver", 8), ("churn", 16))
FAULTY_LINKS = (
    (50, 20, FaultPlan(seed=5, drop=0.05, delay=0.02)),
    (40, 40, FaultPlan(seed=7, drop=0.02, dup=0.02, reorder=0.02)),
    (80, 0, FaultPlan(seed=9, drop=0.1)),
)

# Native programs and what the AST walker (the reference semantics)
# prints and transfers when it runs them to completion.
NATIVE = {
    "pingpong r12000w32": (lambda: programs.pingpong(12000, 32),
                           [("client", [629632])], 24000),
    "stream m7500c8w64": (lambda: programs.stream(7500, 8, 64),
                          [("sender", [306313])], 15000),
    "bidirectional m6000w64": (lambda: programs.bidirectional(6000, 64),
                               [("side0", [117927]), ("side1", [117927])],
                               12000),
}


def _wire_clean(wire: dict) -> bool:
    return all(d["lost"] == 0 and d["delivered"] == d["packets"]
               for d in wire.values())


@dataclass
class Fig5Job:
    """One Figure 5 point under one firmware implementation."""

    shape: str
    impl: str
    size: int

    @property
    def name(self) -> str:
        return f"fig5 {self.shape} {self.impl} {self.size}"

    @property
    def cls(self) -> str:
        return IMPLS[self.impl]

    def run(self, tracer):
        fn, _expected = FIG5[self.shape]
        return tracer.call(f"sim.{self.cls}", fn, self.impl, self.size)

    def check(self, result) -> bool:
        _fn, expected = FIG5[self.shape]
        value = result.latency_us if self.shape == "pingpong" \
            else result.bandwidth_mb_s
        return (result.messages == expected and value is not None
                and math.isfinite(value) and value > 0
                and _wire_clean(result.extra["wire"]))

    def counts(self, result) -> dict:
        extra = result.extra
        out = {"sim.sim_us": result.elapsed_us}
        cycles = extra["nic0_cycles"] + extra["nic1_cycles"]
        if self.impl == "esp":
            out["vmmc.esp_cycles"] = cycles
            out["vmmc.esp_messages"] = result.messages
        if self.impl == "orig":  # the only firmware with fast paths on
            taken = extra["nic0_fastpath_taken"] + extra["nic1_fastpath_taken"]
            missed = extra["nic0_fastpath_missed"] \
                + extra["nic1_fastpath_missed"]
            out["vmmc.fastpath_taken"] = taken
            out["vmmc.fastpath_tried"] = taken + missed
        return out


def _reliability_retransmissions(reliability: list[dict]) -> int:
    return sum(r["retransmissions"] for r in reliability)


@dataclass
class FaultyLinkJob:
    """The §5.3 retransmission protocol as ESP firmware over a seeded
    faulty 2-node link."""

    messages: int
    messages_back: int
    plan: FaultPlan
    cls: str = "esp"

    @property
    def name(self) -> str:
        return (f"retrans link {self.messages}/{self.messages_back} "
                f"seed{self.plan.seed}")

    def run(self, tracer):
        return tracer.call("sim.esp", run_over_faulty_link,
                           messages=self.messages,
                           messages_back=self.messages_back, plan=self.plan)

    def check(self, report) -> bool:
        return (report.converged and report.exactly_once_in_order()
                and len(report.delivered[1]) == self.messages
                and len(report.delivered[0]) == self.messages_back)

    def counts(self, report) -> dict:
        return {
            "sim.events": report.events,
            "sim.sim_us": report.time_us,
            "sim.retransmissions": _reliability_retransmissions(
                [nic["reliability"] for nic in report.nics]),
        }


@dataclass
class FabricJob:
    scenario: str
    nodes: int
    cls: str = "fabric"

    @property
    def name(self) -> str:
        return f"fabric {self.scenario} {self.nodes}"

    def config(self) -> FabricConfig:
        return FabricConfig(nodes=self.nodes, scenario=self.scenario,
                            messages=4, seed=3)

    def run(self, tracer):
        return tracer.call("sim.fabric", run_fabric, self.config(),
                           FABRIC_PLAN)

    def check(self, report) -> bool:
        return report.converged and report.exactly_once_in_order()

    def counts(self, report) -> dict:
        reliability = [endpoint["reliability"]
                       for node in report.node_stats
                       for endpoint in node["endpoints"]]
        return {
            "sim.events": report.events,
            "sim.sim_us": report.time_us,
            "sim.switch_drops": report.network.get(
                "switch", {}).get("congestion_drops", 0),
            "sim.retransmissions": _reliability_retransmissions(reliability),
        }


@dataclass
class NativeJob:
    """A Fig. 5-shaped ESP program on the native engine: a warm machine
    build (codegen, cache probe, dlopen) and a run to completion."""

    name: str
    program: object
    reference: tuple
    cache_dir: str
    cls: str = "native"

    def run(self, tracer):
        prints = []
        before = len(os.listdir(self.cache_dir)) if tracer.enabled else 0
        machine = tracer.call(
            "backends.load", create_machine, self.program, engine="native",
            print_handler=lambda name, values: prints.append(
                (name, list(values))))
        if tracer.enabled:
            tracer.add("backends.cache_hits",
                       len(os.listdir(self.cache_dir)) == before)
        result = tracer.call("runtime.native_run",
                             lambda: create_scheduler(machine).run())
        return {"result": result, "prints": prints,
                "context_switches": machine.counters.context_switches}

    def check(self, outcome) -> bool:
        prints, transfers = self.reference
        result = outcome["result"]
        return (result.reason == "done" and result.transfers == transfers
                and outcome["prints"] == prints)

    def counts(self, outcome) -> dict:
        result = outcome["result"]
        return {"runtime.transfers": result.transfers,
                "runtime.instructions": result.instructions,
                "runtime.context_switches": outcome["context_switches"]}


def native_programs() -> dict:
    """Compiled IR of the native programs (set-up work)."""
    return {name: compile_source(make()) for name, (make, _p, _t)
            in NATIVE.items()}


def corpus(native: dict, cache_dir: str) -> list:
    jobs = [Fig5Job(shape, impl, size) for shape in FIG5 for impl in IMPLS
            for size in FIG5_SIZES]
    jobs += [FaultyLinkJob(m, b, plan) for m, b, plan in FAULTY_LINKS]
    jobs += [FabricJob(scenario, nodes) for scenario, nodes in FABRIC_JOBS]
    for name, (_make, prints, transfers) in NATIVE.items():
        jobs.append(NativeJob(name, native[name], (prints, transfers),
                              cache_dir))
    return jobs


# Jobs whose outcome carries the simulated end-to-end metrics.
SIM_LATENCY_JOB = "fig5 pingpong esp 4"
SIM_BANDWIDTH_JOB = "fig5 one_way esp 1024"
SIM_GOODPUT_JOB = "fabric incast 64"
