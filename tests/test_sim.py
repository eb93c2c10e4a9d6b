"""Tests for the discrete-event device substrate."""

import pytest

from repro.sim import CostModel, DMAEngine, Simulator, Wire
from repro.sim.nic import NIC, FirmwareAction, FirmwareBase, FirmwareInput


def _drain(sim: Simulator) -> None:
    """Fire every queued event (``run_until`` is the one dispatch loop)."""
    sim.run_until(lambda: False)


# -- event engine ----------------------------------------------------------------


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    _drain(sim)
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_equal_times_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(3.0, order.append, tag)
    _drain(sim)
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_run_until_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, 1)
    sim.run_until(lambda: False, until_us=5.0)
    assert not fired
    assert sim.now == 5.0
    _drain(sim)
    assert fired == [1]


def test_run_until_predicate():
    sim = Simulator()
    state = {"n": 0}

    def tick():
        state["n"] += 1
        if state["n"] < 10:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    assert sim.run_until(lambda: state["n"] >= 3)
    assert state["n"] == 3


def test_run_until_clamps_clock_when_queue_drains_before_deadline():
    # Regression: the drained-queue return path left ``now`` at the
    # last event's time instead of advancing to the ``until_us``
    # horizon, so callers computing follow-up deadlines from
    # ``sim.now`` started from a stale clock.
    sim = Simulator()
    sim.schedule(50.0, lambda: None)
    assert sim.run_until(lambda: False, until_us=100.0) is False
    assert sim.now == 100.0
    # Also with an empty queue from the start.
    sim2 = Simulator()
    assert sim2.run_until(lambda: False, until_us=25.0) is False
    assert sim2.now == 25.0


def test_run_until_watchdog_fires_on_drain_not_one_event_late():
    # Regression: a time-dependent watchdog predicate must see the
    # deadline clock on the very call where the queue drains — the old
    # path evaluated it against the stale pre-deadline ``now`` and
    # reported failure, deferring the trip to a later call.
    sim = Simulator()
    sim.schedule(50.0, lambda: None)
    assert sim.run_until(lambda: sim.now >= 100.0, until_us=100.0) is True
    assert sim.now == 100.0


def test_nested_scheduling_from_events():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, lambda: sim.schedule(1.0, hits.append, "inner"))
    _drain(sim)
    assert hits == ["inner"]
    assert sim.now == 2.0


# -- stopping and resuming ------------------------------------------------------
#
# ``run_until`` checks its predicate before every event, so a caller
# can stop the loop anywhere, mid-bucket included, and resume it.


@pytest.mark.parametrize("stride", [1, 2, 3, 7, 64])
def test_batched_identical_timestamps_fire_in_fifo_order(stride):
    # Events at identical timestamps fire in insertion order however
    # the run is cut into batches of ``stride`` events, wherever the
    # cuts fall inside a timestamp bucket.
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(3.0, order.append, tag)
    for tag in range(10, 15):
        sim.schedule(5.0, order.append, tag)
    while sim.pending():
        target = len(order) + stride
        sim.run_until(lambda: len(order) >= target)
    assert order == list(range(15))


@pytest.mark.parametrize("stop", [1, 2, 3, 7, 64])
def test_batched_run_until_stops_mid_bucket_and_resumes_in_order(stop):
    # Stopping inside a same-timestamp bucket must leave the remainder
    # pending (counted by pending()) and fire it in the original
    # insertion order on resume.
    sim = Simulator()
    order = []
    for tag in range(100):
        sim.schedule(4.0, order.append, tag)
    assert sim.run_until(lambda: len(order) >= stop)
    assert order == list(range(stop))
    assert sim.pending() == 100 - stop
    _drain(sim)
    assert order == list(range(100))
    assert sim.pending() == 0


def test_batched_schedule_into_current_bucket_mid_batch():
    # An event handler scheduling at delay 0 appends to the in-flight
    # timestamp bucket; FIFO order must hold across the injection.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "injected")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run_until(lambda: len(order) >= 3)
    assert order == ["first", "second", "injected"]


def test_batched_run_until_clamps_clock_when_queue_drains():
    # The drained-queue clamp after several buckets: an unsatisfied
    # predicate advances the clock to the horizon.
    sim = Simulator()
    for time in (10.0, 20.0, 20.0, 50.0):
        sim.schedule(time, lambda: None)
    assert sim.run_until(lambda: False, until_us=100.0) is False
    assert sim.events_processed == 4
    assert sim.now == 100.0


def test_batched_converged_run_keeps_event_clock():
    # A *satisfied* predicate must report the clock of the event that
    # satisfied it, not the watchdog horizon nor a later event's.
    sim = Simulator()
    done = []
    sim.schedule(50.0, done.append, 1)
    sim.schedule(60.0, done.append, 2)
    assert sim.run_until(lambda: bool(done), until_us=100_000.0) is True
    assert sim.now == 50.0
    assert sim.pending() == 1


def test_batched_watchdog_fires_on_drain():
    # A time-dependent watchdog sees the horizon on the call where the
    # queue drains after several buckets.
    sim = Simulator()
    for time in (10.0, 50.0):
        sim.schedule(time, lambda: None)
    assert sim.run_until(lambda: sim.now >= 100.0, until_us=100.0) is True
    assert sim.now == 100.0


def test_batched_horizon_does_not_fire_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(200.0, fired.append, "late")
    assert sim.run_until(lambda: False, until_us=100.0) is False
    assert fired == ["early"]
    assert sim.pending() == 1
    _drain(sim)
    assert fired == ["early", "late"]


def test_batched_max_events_budget():
    sim = Simulator()

    def requeue():
        sim.schedule(1.0, requeue)

    sim.schedule(1.0, requeue)
    with pytest.raises(RuntimeError):
        sim.run_until(lambda: False, max_events=100)
    assert sim.events_processed == 100


@pytest.mark.parametrize("budget", [1, 3, 128])
def test_run_until_checks_predicate_after_last_budgeted_event(budget):
    # The event budget raises only for a predicate still false after
    # max_events events; one that first holds on the last of them is
    # reported as reached.
    sim = Simulator()

    def requeue():
        sim.schedule(1.0, requeue)

    sim.schedule(1.0, requeue)
    assert sim.run_until(lambda: sim.events_processed >= budget,
                         max_events=budget)
    assert sim.events_processed == budget


def test_pending_counts_across_buckets():
    sim = Simulator()
    assert sim.pending() == 0
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 4
    _drain(sim)
    assert sim.pending() == 0


# -- DMA engines -------------------------------------------------------------------


def test_dma_transfer_time():
    cost = CostModel()
    sim = Simulator()
    dma = DMAEngine(sim, "d", startup_us=2.0, mb_s=100.0)
    done = []
    dma.start(1000, done.append, "x")
    assert dma.busy
    _drain(sim)
    assert done == ["x"]
    assert sim.now == pytest.approx(2.0 + 10.0)
    assert not dma.busy


def test_dma_transfers_serialize():
    sim = Simulator()
    dma = DMAEngine(sim, "d", startup_us=1.0, mb_s=100.0)
    times = []
    dma.start(100, lambda: times.append(sim.now))
    dma.start(100, lambda: times.append(sim.now))
    _drain(sim)
    assert times[0] == pytest.approx(2.0)
    assert times[1] == pytest.approx(4.0)


# -- wire ------------------------------------------------------------------------------


class _RecordingNIC:
    def __init__(self):
        self.packets = []

    def packet_arrived(self, packet):
        self.packets.append(packet)


def test_wire_delivers_to_other_side():
    sim = Simulator()
    cost = CostModel()
    wire = Wire(sim, cost)
    a, b = _RecordingNIC(), _RecordingNIC()
    wire.attach(0, a)
    wire.attach(1, b)
    wire.send(0, {"id": 1}, 160)
    _drain(sim)
    assert b.packets == [{"id": 1}]
    assert not a.packets
    assert sim.now == pytest.approx(160 / cost.wire_mb_s + cost.wire_latency_us)


def test_wire_directions_are_independent():
    sim = Simulator()
    wire = Wire(sim, CostModel())
    a, b = _RecordingNIC(), _RecordingNIC()
    wire.attach(0, a)
    wire.attach(1, b)
    wire.send(0, {"to": "b"}, 100)
    wire.send(1, {"to": "a"}, 100)
    _drain(sim)
    assert a.packets == [{"to": "a"}]
    assert b.packets == [{"to": "b"}]


# -- NIC CPU model -----------------------------------------------------------------------


class _EchoFirmware(FirmwareBase):
    """Consumes inputs, burns a fixed cycle budget, echoes actions."""

    def __init__(self, cycles_per_input=330.0):
        self.cycles_per_input = cycles_per_input
        self.seen = []

    def step(self, inputs):
        self.seen.extend(inputs)
        actions = []
        for inp in inputs:
            if inp.kind == "host_req":
                actions.append(FirmwareAction("notify", payload=inp.payload))
        return self.cycles_per_input * len(inputs), actions


def _nic_with_host():
    from repro.sim.host import Host

    sim = Simulator()
    cost = CostModel()
    fw = _EchoFirmware()
    nic = NIC(sim, cost, 0, fw)
    wire = Wire(sim, cost)
    wire.attach(0, nic)
    wire.attach(1, _RecordingNIC())
    nic.wire = wire
    host = Host(sim, cost, nic)
    return sim, cost, nic, host, fw


def test_nic_charges_cpu_time():
    sim, cost, nic, host, fw = _nic_with_host()
    host.post({"kind": "noop"})
    _drain(sim)
    # 330 cycles at 33 MHz = 10 µs of CPU plus post + notify latency.
    assert host.notifications == [{"kind": "noop"}]
    assert sim.now == pytest.approx(cost.host_post_us + 10.0 + cost.host_notify_us)
    assert nic.stats.quanta == 1


def test_nic_inputs_batch_while_cpu_busy():
    sim, cost, nic, host, fw = _nic_with_host()
    host.post({"n": 1})
    host.post({"n": 2})
    host.post({"n": 3})
    _drain(sim)
    # First quantum takes input 1 (and possibly 2/3 depending on PIO
    # arrival); everything is processed in <= 3 quanta.
    assert len(host.notifications) == 3
    assert nic.stats.quanta <= 3


def test_nic_recv_dma_precedes_firmware():
    sim, cost, nic, host, fw = _nic_with_host()
    nic.packet_arrived({"nbytes": 1600})
    _drain(sim)
    assert any(i.kind == "packet" for i in fw.seen)
    # The packet went through the receive DMA engine first.
    assert nic.dma_recv.transfers == 1
    assert nic.dma_recv.bytes_moved == 1600 + cost.packet_header_bytes


def test_cost_model_chunks():
    cost = CostModel()
    assert cost.chunks_of(4) == [4]
    assert cost.chunks_of(32) == [32]
    assert cost.chunks_of(33) == [33]
    assert cost.chunks_of(4096) == [4096]
    assert cost.chunks_of(4097) == [4096, 1]
    assert cost.chunks_of(65536) == [4096] * 16


def test_cost_model_conversions():
    cost = CostModel()
    assert cost.cycles_to_us(33.0) == pytest.approx(1.0)
    assert cost.host_dma_us(0) == pytest.approx(cost.host_dma_startup_us)
    assert cost.wire_time_us(160) == pytest.approx(cost.wire_latency_us + 1.0)


def test_sram_accounting_bounded_by_window():
    from repro.vmmc.workloads import build_pair

    pair = build_pair("orig")
    received = []
    pair.hosts[1].on_notify = received.append
    for _ in range(6):
        pair.hosts[0].send(1, 0, 8192)  # 2 chunks each
    pair.sim.run_until(lambda: len(received) >= 6, max_events=4_000_000)
    for nic in pair.nics:
        assert nic.stats.sram_peak_bytes > 0
        # Occupancy stays far below the 1 MB SRAM: the window bounds
        # in-flight data.
        assert nic.stats.sram_peak_bytes < nic.sram_bytes // 4
        assert nic.sram_used == 0  # everything drained


def test_sram_acquire_release_cycle():
    sim = Simulator()
    cost = CostModel()
    nic = NIC(sim, cost, 0, _EchoFirmware())
    nic.sram_acquire(1000)
    nic.sram_acquire(500)
    assert nic.stats.sram_peak_bytes == 1500
    nic.sram_release(1500)
    assert nic.sram_used == 0
