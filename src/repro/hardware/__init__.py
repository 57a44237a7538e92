"""Simulated heterogeneous server: DES kernel, resources, topology, costs.

The paper evaluates on a physical 2-socket Xeon + 2x GTX 1080 machine; this
package is the calibrated substitute (every constant, with the paper
figure it comes from, is in :mod:`repro.hardware.specs`).
"""

from .costmodel import (
    CYCLES,
    DBMS_C_TUNING,
    DBMS_G_TUNING,
    PROTEUS_TUNING,
    BlockStats,
    CostModel,
    EngineTuning,
    TransferPlan,
    WorkRequest,
)
from .resources import BandwidthResource, FifoResource
from .sim import AllOf, AnyOf, Event, Interrupt, Process, SimulationError, Simulator, Store, Timeout
from .specs import PAPER_SERVER, ServerSpec
from .topology import Core, DeviceType, Gpu, MemoryNode, PcieLink, Server, Socket

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Store",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "FifoResource",
    "BandwidthResource",
    "ServerSpec",
    "PAPER_SERVER",
    "DeviceType",
    "MemoryNode",
    "Core",
    "Socket",
    "Gpu",
    "PcieLink",
    "Server",
    "BlockStats",
    "WorkRequest",
    "TransferPlan",
    "EngineTuning",
    "CostModel",
    "CYCLES",
    "PROTEUS_TUNING",
    "DBMS_C_TUNING",
    "DBMS_G_TUNING",
]
