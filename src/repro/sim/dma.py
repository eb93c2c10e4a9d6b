"""DMA engines.

Each Myrinet NIC has three DMA engines (§2.1): host↔card, net-send,
and net-receive.  An engine transfers one block at a time; callers
check ``busy`` (the firmware's ``dmaIsFree()``/status registers) and
receive a completion callback, which the NIC turns into a firmware
input event.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.events import Simulator


class DMAEngine:
    """One DMA engine with startup latency and fixed bandwidth."""

    def __init__(self, sim: Simulator, name: str, startup_us: float, mb_s: float,
                 faults=None):
        self.sim = sim
        self.name = name
        self.startup_us = startup_us
        self.mb_s = mb_s
        self.faults = faults  # a DMAFaultInjector, or None
        self.busy_until = 0.0
        self.transfers = 0
        self.bytes_moved = 0
        self.stalls = 0
        self.stall_us_total = 0.0

    @property
    def busy(self) -> bool:
        return self.sim.now < self.busy_until

    def transfer_time_us(self, nbytes: int) -> float:
        return self.startup_us + nbytes / self.mb_s

    def start(self, nbytes: int, on_done: Callable, *args) -> float:
        """Begin a transfer; returns its completion time.  Transfers
        queue behind the engine's current work (the firmware normally
        checks ``busy`` first, but queueing keeps the model safe)."""
        begin = max(self.sim.now, self.busy_until)
        done = begin + self.transfer_time_us(nbytes)
        if self.faults is not None:
            stall = self.faults.stall_us()
            if stall > 0.0:
                self.stalls += 1
                self.stall_us_total += stall
                done += stall
        self.busy_until = done
        self.transfers += 1
        self.bytes_moved += nbytes
        self.sim.at(done, on_done, *args)
        return done
