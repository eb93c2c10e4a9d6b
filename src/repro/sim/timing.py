"""The cost model for the simulated Myrinet platform (§2.1, §6.2).

All firmware work is charged in LANai cycles (33 MHz → 0.0303 µs per
cycle).  The three implementations are distinguished purely by how
many cycles their code paths consume:

* the ESP firmware's cycles come from real interpreter operation
  counts (instructions, context switches, transfers, allocations,
  refcounts) times the per-operation weights below;
* the baseline C firmware charges per-handler and per-action weights
  directly (compiled C does less bookkeeping per logical step, and the
  hand-optimized fast path does least).

The shape-defining constants reproduce the paper's discontinuities:
``small_msg_inline_bytes = 32`` (messages ≤ 32 B are handled as a
special case — the 32/64 B jump in Figure 5) and ``page_size = 4096``
(the 4/8 KB jump).

Weights were calibrated so the relative curves match Figure 5 —
who wins, by what factor, and where the gaps close (see
EXPERIMENTS.md for paper-vs-measured).  Absolute numbers are in the
right regime for 2001-era VMMC (tens of microseconds of latency,
~100 MB/s of bandwidth) but are not the paper's testbed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CostModel:
    """Cycle and bandwidth constants for the simulated platform."""

    cpu_mhz: float = 33.0

    # --- ESP interpreter operation weights (cycles per counted op) ----
    cycles_per_instruction: float = 9.5
    cycles_context_switch: float = 6.0    # save/restore a PC (§6.1)
    cycles_transfer: float = 30.0         # rendezvous + match + bind
    cycles_alloc: float = 18.0
    cycles_free: float = 12.0
    cycles_refcount: float = 2.5
    cycles_idle_poll: float = 4.0

    # --- baseline event-driven C firmware weights ----------------------
    cycles_c_handler: float = 130.0       # handler dispatch + body
    cycles_c_action: float = 60.0         # start a DMA / compose a packet
    cycles_c_state_update: float = 30.0   # setState + global bookkeeping
    cycles_c_fastpath: float = 150.0      # the whole hand-optimized send path
    cycles_c_recv_fastpath: float = 120.0 # the hand-optimized receive path
    cycles_c_fast_completion: float = 45.0
    cycles_c_fast_ack: float = 40.0       # ack processing on the fast path
    cycles_c_retrans_bookkeeping: float = 55.0

    # --- DMA engines (§2.1: 3 DMAs) ------------------------------------
    host_dma_startup_us: float = 2.0      # PCI transaction setup
    host_dma_mb_s: float = 133.0          # 32-bit/33 MHz PCI
    net_dma_startup_us: float = 1.0
    net_dma_mb_s: float = 160.0           # 1.28 Gb/s Myrinet

    # --- wire -----------------------------------------------------------
    wire_latency_us: float = 0.5
    wire_mb_s: float = 160.0

    # --- host side --------------------------------------------------------
    host_post_us: float = 1.5             # library writes the request (PIO)
    host_notify_us: float = 1.0           # completion/arrival notification
    host_turnaround_us: float = 1.0       # app reacts (pingpong bounce)

    # --- protocol shape ----------------------------------------------------
    small_msg_inline_bytes: int = 32      # inlined in the descriptor
    page_size: int = 4096
    mtu: int = 4096
    window_size: int = 8
    packet_header_bytes: int = 16

    def cycles_to_us(self, cycles: float) -> float:
        return cycles / self.cpu_mhz

    def dma_time_us(self, nbytes: int, startup_us: float, mb_s: float) -> float:
        return startup_us + nbytes / mb_s

    def host_dma_us(self, nbytes: int) -> float:
        return self.dma_time_us(nbytes, self.host_dma_startup_us, self.host_dma_mb_s)

    def wire_time_us(self, nbytes: int) -> float:
        return self.wire_latency_us + nbytes / self.wire_mb_s

    def chunks_of(self, size: int) -> list[int]:
        """Split a message into page-aligned chunks (the paper's 4 KB
        page size drives the 4/8 KB discontinuity)."""
        if size <= self.small_msg_inline_bytes:
            return [size]
        chunks = []
        remaining = size
        while remaining > 0:
            take = min(remaining, self.page_size)
            chunks.append(take)
            remaining -= take
        return chunks


@dataclass
class ReliabilityCounters:
    """Per-NIC fault/recovery counters for a reliable firmware.

    ``time_to_recover`` episodes span from the first timeout after
    forward progress stalled to the ack that restarts it; see
    docs/FAULTS.md for exact semantics of every counter.
    """

    data_sent: int = 0            # first transmissions of a seq
    retransmissions: int = 0      # repeat transmissions of a seq
    timeouts: int = 0             # timer expiries that fired a retransmit
    acks_sent: int = 0
    acks_received: int = 0
    delivered: int = 0            # payloads handed to the host, in order
    duplicates_suppressed: int = 0
    out_of_order_dropped: int = 0
    corrupt_dropped: int = 0
    recoveries: int = 0
    recovery_us_total: float = 0.0
    recovery_us_max: float = 0.0

    def record_recovery(self, us: float) -> None:
        self.recoveries += 1
        self.recovery_us_total += us
        self.recovery_us_max = max(self.recovery_us_max, us)

    def as_dict(self) -> dict:
        return {
            "data_sent": self.data_sent,
            "retransmissions": self.retransmissions,
            "timeouts": self.timeouts,
            "acks_sent": self.acks_sent,
            "acks_received": self.acks_received,
            "delivered": self.delivered,
            "duplicates_suppressed": self.duplicates_suppressed,
            "out_of_order_dropped": self.out_of_order_dropped,
            "corrupt_dropped": self.corrupt_dropped,
            "recoveries": self.recoveries,
            "recovery_us_total": round(self.recovery_us_total, 6),
            "recovery_us_max": round(self.recovery_us_max, 6),
        }


@dataclass
class CycleCounter:
    """Accumulates cycles charged by a firmware implementation."""

    cycles: float = 0.0
    by_category: dict = field(default_factory=dict)

    def charge(self, cycles: float, category: str = "other") -> None:
        self.cycles += cycles
        self.by_category[category] = self.by_category.get(category, 0.0) + cycles

    def take(self) -> float:
        """Return and reset the accumulated cycles."""
        cycles = self.cycles
        self.cycles = 0.0
        return cycles
