"""The simulated Myrinet network interface card (§2.1).

A NIC owns a 33 MHz CPU, three DMA engines (host↔card, net-send,
net-receive), and runs a *firmware* object.  Firmware is pluggable —
the ESP interpreter adapter and the baseline C-style event-driven
implementation both satisfy :class:`FirmwareBase` — so the benchmark
harness runs the exact same platform under every implementation.

Execution model: arriving events (host requests, DMA completions,
packets) queue as :class:`FirmwareInput`; when the CPU is free the
firmware consumes the queue in one *quantum*, returning the cycles it
burned and the device actions it initiated.  Actions take effect when
the quantum ends (the CPU was busy computing them), which is also when
the next quantum may start — a faithful single-CPU, run-to-completion
model of the event-driven firmware loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.sim.dma import DMAEngine
from repro.sim.events import Simulator
from repro.sim.timing import CostModel


@dataclass
class FirmwareInput:
    """One event delivered to the firmware."""

    kind: str  # "host_req" | "host_dma_done" | "packet" | "timer"
    payload: Any = None


@dataclass
class FirmwareAction:
    """One device action initiated by the firmware."""

    kind: str  # "host_dma" | "net_send" | "notify"
    payload: Any = None
    nbytes: int = 0
    tag: Any = None


class FirmwareBase:
    """Interface every firmware implementation provides."""

    name = "firmware"

    def attach(self, nic: "NIC") -> None:
        self.nic = nic

    def step(self, inputs: list[FirmwareInput]) -> tuple[float, list[FirmwareAction]]:
        """Process ``inputs``; return (cycles consumed, actions)."""
        raise NotImplementedError


@dataclass
class NICStats:
    quanta: int = 0
    inputs: int = 0
    actions: int = 0
    cycles: float = 0.0
    busy_us: float = 0.0
    sram_peak_bytes: int = 0
    timers_set: int = 0


class NIC:
    """One network interface card attached to a host and a wire."""

    def __init__(self, sim: Simulator, cost: CostModel, side: int,
                 firmware: FirmwareBase, faults=None):
        self.sim = sim
        self.cost = cost
        self.side = side
        self.firmware = firmware
        self.wire = None
        self.host = None

        def _dma(name: str, startup_us: float, mb_s: float) -> DMAEngine:
            injector = faults.dma_injector(name) if faults is not None else None
            return DMAEngine(sim, name, startup_us, mb_s, faults=injector)

        self.dma_host = _dma(f"hostDMA{side}",
                             cost.host_dma_startup_us, cost.host_dma_mb_s)
        self.dma_send = _dma(f"sendDMA{side}",
                             cost.net_dma_startup_us, cost.net_dma_mb_s)
        self.dma_recv = _dma(f"recvDMA{side}",
                             cost.net_dma_startup_us, cost.net_dma_mb_s)
        self._inputs: list[FirmwareInput] = []
        self._cpu_busy_until = 0.0
        self._kick_scheduled = False
        self.stats = NICStats()
        # 1 MB SRAM (§2.1): chunk buffers occupy it between the fetch
        # DMA and the wire (send side) / between the wire and the store
        # DMA (receive side).  Tracked for realism; the window size
        # keeps occupancy bounded well below 1 MB in practice.
        self.sram_bytes = 1 << 20
        self.sram_used = 0
        firmware.attach(self)

    def sram_acquire(self, nbytes: int) -> None:
        self.sram_used += nbytes
        self.stats.sram_peak_bytes = max(self.stats.sram_peak_bytes,
                                         self.sram_used)

    def sram_release(self, nbytes: int) -> None:
        self.sram_used = max(0, self.sram_used - nbytes)

    # -- event entry points -----------------------------------------------------

    def deliver_input(self, inp: FirmwareInput) -> None:
        self._inputs.append(inp)
        self.stats.inputs += 1
        self._kick()

    def packet_arrived(self, packet: dict) -> None:
        """A packet came off the wire: the receive DMA moves it into
        SRAM, then the firmware sees it."""
        nbytes = packet.get("nbytes", 0) + self.cost.packet_header_bytes
        self.sram_acquire(packet.get("nbytes", 0))
        self.dma_recv.start(
            nbytes, self.deliver_input, FirmwareInput("packet", packet)
        )

    # -- the CPU ------------------------------------------------------------------

    def _kick(self) -> None:
        if self._kick_scheduled:
            return
        if self.sim.now < self._cpu_busy_until:
            self._kick_scheduled = True
            self.sim.at(self._cpu_busy_until, self._kick_now)
            return
        self._kick_now()

    def _kick_now(self) -> None:
        self._kick_scheduled = False
        if self.sim.now < self._cpu_busy_until:
            self._kick_scheduled = True
            self.sim.at(self._cpu_busy_until, self._kick_now)
            return
        if not self._inputs:
            return
        inputs, self._inputs = self._inputs, []
        cycles, actions = self.firmware.step(inputs)
        busy_us = self.cost.cycles_to_us(cycles)
        self.stats.quanta += 1
        self.stats.cycles += cycles
        self.stats.busy_us += busy_us
        self._cpu_busy_until = self.sim.now + busy_us
        self.sim.at(self._cpu_busy_until, self._perform_actions, actions)

    def _perform_actions(self, actions: list[FirmwareAction]) -> None:
        for action in actions:
            self.stats.actions += 1
            if action.kind == "host_dma":
                tag_kind = action.tag[0] if isinstance(action.tag, tuple) else None
                if tag_kind in ("fetch", "fastfetch"):
                    # Fetched data lands in SRAM until it goes on the wire.
                    self.sram_acquire(action.nbytes)
                self.dma_host.start(
                    action.nbytes,
                    self._host_dma_done,
                    action,
                )
            elif action.kind == "net_send":
                nbytes = action.nbytes + self.cost.packet_header_bytes
                self.sram_release(action.nbytes)
                self.wire.send(self.side, action.payload, nbytes)
                # Keep the send engine's status register honest for
                # fast-path checks: it is busy while the wire drains.
                self.dma_send.busy_until = max(
                    self.dma_send.busy_until,
                    self.sim.now + nbytes / self.cost.net_dma_mb_s,
                )
            elif action.kind == "notify":
                self.sim.schedule(
                    self.cost.host_notify_us, self.host.notify, action.payload
                )
            elif action.kind == "timer":
                self.stats.timers_set += 1
                self.sim.schedule(
                    float(action.nbytes),
                    self.deliver_input,
                    FirmwareInput("timer", action.payload),
                )
            else:
                raise ValueError(f"unknown firmware action {action.kind!r}")
        if self._inputs:
            self._kick()

    def _host_dma_done(self, action: FirmwareAction) -> None:
        tag_kind = action.tag[0] if isinstance(action.tag, tuple) else None
        if tag_kind in ("store", "faststore"):
            # The packet's SRAM buffer is free once it reaches host memory.
            self.sram_release(action.nbytes)
        self.deliver_input(FirmwareInput("host_dma_done", action.tag))

    # -- status registers (polled by firmware, §2.1) --------------------------------

    def send_dma_free(self) -> bool:
        return not self.dma_send.busy

    def host_dma_free(self) -> bool:
        return not self.dma_host.busy
