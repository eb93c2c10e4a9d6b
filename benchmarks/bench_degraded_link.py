"""Degraded-link goodput: the retransmission firmware under loss.

The companion to Figure 5(b): instead of a perfect wire, the link
drops a fraction of its packets and the verified go-back-N protocol
(§5.3), running as firmware, recovers them.  The series reports
goodput (delivered payload bytes over elapsed time) and the recovery
work (retransmissions, timeouts) at each loss rate.

Shape assertions: goodput degrades monotonically-ish with loss (we
allow a small tolerance for scheduling luck), every run converges with
exactly-once in-order delivery, and a lossy run really does retransmit.
"""

import pytest

from benchmarks.harness import Table
from repro.vmmc.workloads import degraded_link_bandwidth

LOSS_RATES = [0.0, 0.01, 0.05, 0.10]
MESSAGES = 150
SIZE = 4096


@pytest.fixture(scope="module")
def sweep():
    return {loss: degraded_link_bandwidth(loss, size=SIZE, messages=MESSAGES)
            for loss in LOSS_RATES}


def test_degraded_link_table(sweep):
    table = Table(
        "Degraded link — retransmission firmware goodput (MB/s)",
        ["loss", "goodput", "retransmissions", "timeouts"],
    )
    for loss in LOSS_RATES:
        result = sweep[loss]
        table.add(f"{loss:.0%}", result.bandwidth_mb_s,
                  result.extra["retransmissions"], result.extra["timeouts"])
    table.note("verified go-back-N protocol compiled into the firmware; "
               "same plan seed at every loss rate")
    table.show()


def test_every_rate_converges_exactly_once(sweep):
    for loss, result in sweep.items():
        assert result.messages == MESSAGES, loss


def test_lossless_run_never_retransmits(sweep):
    assert sweep[0.0].extra["retransmissions"] == 0
    assert sweep[0.0].extra["timeouts"] == 0


def test_lossy_runs_recover_by_retransmitting(sweep):
    for loss in LOSS_RATES[1:]:
        # A dropped *data* packet can only be recovered by retransmitting
        # (dropped acks may be covered by a later cumulative ack).
        if sweep[loss].extra["injected"].get("wire0", {}).get("drop"):
            assert sweep[loss].extra["retransmissions"] > 0, loss


def test_goodput_degrades_with_loss(sweep):
    clean = sweep[0.0].bandwidth_mb_s
    worst = sweep[LOSS_RATES[-1]].bandwidth_mb_s
    assert worst < clean
    # Loss hurts, but the protocol still makes useful progress.
    assert worst > 0.05 * clean
