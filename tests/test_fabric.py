"""The fabric determinism battery.

Two contracts lock the N-node fabric down:

1. **Determinism** — one ``(config, plan)`` pair yields byte-identical
   ``stats_json`` across repeated runs, at every node count, through
   the CLI included.
2. **Exact convergence** — the convergence check runs before every
   event, so ``converged_at_us`` is the time of the event that
   completed the last flow: a deadline at that time converges, and one
   a microsecond fraction earlier does not.

Plus the conservation property: under random topologies x random fault
plans, every injected payload is delivered exactly once and in order,
and the switch's buffer accounting reconciles to zero.

The 2-node link is this fabric at N=2 (``run_over_faulty_link``); its
counters are pinned by the retransmission goldens in
``tests/test_engine_golden.py``.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings

from repro.sim.fabric import FabricConfig, build_flows, run_fabric
from repro.sim.faults import FaultPlan
from repro.tools.cli import main as espc_main
from tests.strategies import fault_plans, topologies


# -- 1. determinism: same seed, byte-identical stats ----------------------------


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


# -- 2. convergence is reported exactly --------------------------------------------


@pytest.mark.parametrize("scenario,nodes", [
    ("incast", 16),
    ("hot_receiver", 8),
    ("churn", 16),
])
def test_converged_at_is_the_completing_event(scenario, nodes):
    # A deadline is inclusive: a run whose deadline is the reported
    # convergence time still converges, and one just before it cannot,
    # so the report names the completing event, not a later one.
    plan = FaultPlan(seed=11, drop=0.02, delay=0.02)
    config = FabricConfig(nodes=nodes, scenario=scenario, messages=4, seed=3)
    report = run_fabric(config, plan=plan)
    assert report.converged, report.summary()
    at = report.converged_at_us
    on_time = run_fabric(dataclasses.replace(config, deadline_us=at),
                         plan=plan)
    assert on_time.converged and on_time.converged_at_us == at
    early = run_fabric(dataclasses.replace(config, deadline_us=at - 1e-6),
                       plan=plan)
    assert not early.converged


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
