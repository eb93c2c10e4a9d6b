"""The host side: the VMMC library role.

Applications post requests through :class:`Host` (modelling the
user-level library writing descriptors over the bus, §2.1) and receive
completion/arrival notifications.  The workload drivers in
:mod:`repro.vmmc.workloads` sit on top.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.events import Simulator
from repro.sim.nic import NIC, FirmwareInput
from repro.sim.timing import CostModel


class Host:
    """One host machine with its NIC."""

    def __init__(self, sim: Simulator, cost: CostModel, nic: NIC):
        self.sim = sim
        self.cost = cost
        self.nic = nic
        nic.host = self
        self.notifications: list[Any] = []
        self.on_notify: Callable[[Any], None] | None = None
        self.posted = 0

    def post(self, request: dict) -> None:
        """Post a request descriptor to the NIC (PIO write)."""
        self.posted += 1
        self.sim.schedule(
            self.cost.host_post_us,
            self.nic.deliver_input,
            FirmwareInput("host_req", request),
        )

    def send(self, dest: int, vaddr: int, size: int) -> None:
        """VMMC send: deliver ``size`` bytes to node ``dest`` (§2.1)."""
        self.post({"kind": "send", "dest": dest, "vaddr": vaddr, "size": size})

    def update_translation(self, vaddr: int, paddr: int) -> None:
        """VMMC UpdateReq: install a virtual→physical mapping."""
        self.post({"kind": "update", "vaddr": vaddr, "paddr": paddr})

    def notify(self, info: Any) -> None:
        self.notifications.append(info)
        if self.on_notify is not None:
            self.on_notify(info)

    def payloads(self, key: str = "val") -> list:
        """The ``key`` field of every notification carrying one, in
        arrival order — the delivered-payload log the fault-injection
        harness checks for exactly-once, in-order delivery."""
        return [n[key] for n in self.notifications
                if isinstance(n, dict) and key in n]
