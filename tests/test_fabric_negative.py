"""Congestion-model regressions for the switched fabric (ISSUE 10).

The switch's failure modes must stay *graceful*: a full shared buffer
drops packets (it never blocks a port, so the fabric cannot deadlock),
a hot receiver cannot starve bystander flows (its congestion is
confined to its own port's share of the buffer), and the whole
congestion path is pinned by a scripted incast golden under one fault
seed — any change to admission, service order, or drop accounting
shows up as a byte diff in ``tests/goldens/fabric_incast_seed42.json``.

Regenerating the golden (only after an intentional model change):

    PYTHONPATH=src python tests/test_fabric_negative.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.events import Simulator
from repro.sim.fabric import FabricConfig, run_fabric
from repro.sim.faults import FaultPlan
from repro.sim.switch import Switch, SwitchConfig
from repro.sim.timing import CostModel

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# The scripted congestion scenario: an 8-node incast squeezed through
# a buffer an order of magnitude below the offered burst, with losses
# on the links too.  Small message counts keep the run fast while the
# window burst (7 senders x window 4) still overwhelms admission.
_GOLDEN_CONFIG = FabricConfig(
    nodes=8, scenario="incast", messages=6, window=4, seed=0,
    switch=SwitchConfig(buffer_bytes=8_192),
)
_GOLDEN_PLAN = FaultPlan(seed=42, drop=0.03, dup=0.01, delay=0.02)


def _golden_run() -> str:
    report = run_fabric(_GOLDEN_CONFIG, plan=_GOLDEN_PLAN)
    assert report.converged, report.summary()
    assert report.exactly_once_in_order()
    assert report.network["switch"]["congestion_drops"] > 0
    return report.stats_json() + "\n"


# -- buffer exhaustion drops, never deadlocks ------------------------------------


def test_buffer_exhaustion_drops_and_still_converges():
    # The smallest legal buffer holds exactly one max-size packet:
    # incast slams it, most of every burst is dropped at admission,
    # and the run must still converge through retransmission —
    # congestion can cost time, never liveness.
    cost = CostModel()
    report = run_fabric(
        FabricConfig(
            nodes=6, scenario="incast", messages=4, window=4,
            switch=SwitchConfig(
                buffer_bytes=cost.mtu + cost.packet_header_bytes),
        ),
    )
    assert report.converged, report.summary()
    assert report.exactly_once_in_order()
    switch = report.network["switch"]
    assert switch["congestion_drops"] > 0
    assert switch["buffer_used"] == 0  # drained, not wedged
    retrans = sum(ep["reliability"]["retransmissions"]
                  for node in report.node_stats
                  for ep in node["endpoints"])
    assert retrans > 0  # drops forced real recovery work


def test_buffer_smaller_than_one_packet_rejected():
    cost = CostModel()
    sim = Simulator()
    with pytest.raises(ValueError):
        Switch(sim, cost, 4, config=SwitchConfig(buffer_bytes=256))
    with pytest.raises(ValueError):
        Switch(sim, cost, 4, config=SwitchConfig(
            buffer_bytes=cost.mtu + cost.packet_header_bytes - 1))


def test_switch_needs_two_ports():
    with pytest.raises(ValueError):
        Switch(Simulator(), CostModel(), 1)


# -- the hot receiver cannot starve bystanders -----------------------------------


def test_hot_receiver_does_not_starve_ring_flows():
    # Node 0 is hammered by every other node while a ring circulates
    # among nodes 1..N-1.  The per-port cap confines the hot port's
    # congestion to its own share of the shared buffer, so the ring
    # flows must complete with zero drops at *their* ports.
    report = run_fabric(
        FabricConfig(
            nodes=6, scenario="hot_receiver", messages=5, window=4,
            switch=SwitchConfig(buffer_bytes=16_384),
        ),
    )
    assert report.converged, report.summary()
    assert report.exactly_once_in_order()
    network = report.network
    # All congestion landed on the hot port; the bystander ring ports
    # never saw a drop.
    for node in range(1, 6):
        assert network[f"down{node}"]["congestion_drops"] == 0
    # Every ring flow (dst != 0) was delivered in full and in order.
    for flow in report.flows:
        if flow.dst != 0:
            assert report.flow_delivered(flow) == report.expected(flow)


def test_hot_port_congestion_does_not_consume_whole_buffer():
    # Even mid-incast, the per-port cap leaves shared-buffer headroom:
    # the hot port's peak occupancy never exceeds its cap.
    report = run_fabric(
        FabricConfig(
            nodes=8, scenario="incast", messages=6, window=8,
            switch=SwitchConfig(buffer_bytes=16_384),
        ),
    )
    assert report.converged, report.summary()
    network = report.network
    cap = network["switch"]["port_cap_bytes"]
    assert network["down0"]["queue_peak_bytes"] <= cap
    assert network["down0"]["queue_peak_bytes"] > 0


# -- misrouting and attachment ---------------------------------------------------


def test_misrouted_packets_are_counted_not_crashed():
    sim = Simulator()
    cost = CostModel()
    switch = Switch(sim, cost, 2)

    class _Sink:
        def packet_arrived(self, packet):
            pass

    switch.attach(0, _Sink())
    switch.attach(1, _Sink())
    switch.send(0, {"dest": 7, "nbytes": 0}, 16)      # no such port
    switch.send(0, {"nbytes": 0}, 16)                 # no dest at all
    switch.send(0, {"dest": 1, "nbytes": 0}, 16)      # fine
    sim.run_until(lambda: False)
    assert switch.misrouted == 2
    assert switch.routed == 1
    assert switch.quiescent()


def test_unattached_port_is_a_hard_error():
    sim = Simulator()
    switch = Switch(sim, CostModel(), 2)
    switch.send(0, {"dest": 1, "nbytes": 0}, 16)
    with pytest.raises(RuntimeError):
        sim.run_until(lambda: False)


# -- config validation ------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(nodes=1),
    dict(scenario="storm"),
    dict(scenario="hot_receiver", nodes=2),
    dict(messages=0),
    dict(messages_back=-1),
])
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        FabricConfig(**kwargs)


# -- the scripted incast golden ---------------------------------------------------


def test_incast_congestion_golden():
    golden = (GOLDEN_DIR / "fabric_incast_seed42.json").read_text()
    assert _golden_run() == golden


def test_incast_golden_is_canonical_json():
    text = (GOLDEN_DIR / "fabric_incast_seed42.json").read_text()
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True) + "\n"
    assert data["converged"] is True
    assert data["network"]["switch"]["congestion_drops"] > 0


if __name__ == "__main__":  # regeneration entry point (see docstring)
    (GOLDEN_DIR / "fabric_incast_seed42.json").write_text(_golden_run())
    print("wrote goldens/fabric_incast_seed42.json")
