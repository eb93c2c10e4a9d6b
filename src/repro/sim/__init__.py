"""The device substrate: a discrete-event simulation of the paper's
evaluation platform — Myrinet NICs (33 MHz LANai, 1 MB SRAM, 3 DMA
engines) on two hosts joined by a wire (§2.1, §6.2).

See DESIGN.md §2 for why this substitution preserves the evaluation's
shape: firmware really executes on the simulated NIC (the ESP firmware
through the interpreter, the baseline through the Appendix-A handler
framework), and all costs are counted cycles, so results are
deterministic."""

from repro.sim.events import Simulator
from repro.sim.timing import CostModel, ReliabilityCounters
from repro.sim.dma import DMAEngine
from repro.sim.faults import FaultPlan, FaultSession
from repro.sim.network import Wire
from repro.sim.nic import NIC, FirmwareAction, FirmwareBase, FirmwareInput
from repro.sim.host import Host
from repro.sim.switch import Switch, SwitchConfig
from repro.sim.fabric import (
    FabricConfig,
    FabricNodeFirmware,
    FabricReport,
    Flow,
    SCENARIOS,
    build_flows,
    run_fabric,
)

__all__ = [
    "Simulator",
    "CostModel",
    "ReliabilityCounters",
    "DMAEngine",
    "FaultPlan",
    "FaultSession",
    "Wire",
    "Switch",
    "SwitchConfig",
    "FabricConfig",
    "FabricNodeFirmware",
    "FabricReport",
    "Flow",
    "SCENARIOS",
    "build_flows",
    "run_fabric",
    "NIC",
    "Host",
    "FirmwareBase",
    "FirmwareInput",
    "FirmwareAction",
]
