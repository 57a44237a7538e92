"""Simulated server topology: sockets, cores, GPUs, memory nodes, links.

This module instantiates the *dynamic* counterpart of a
:class:`~repro.hardware.specs.ServerSpec`: every memory node gets a
processor-sharing :class:`~repro.hardware.resources.BandwidthResource`,
every GPU an exclusive :class:`~repro.hardware.resources.FifoResource`
(its compute slot) and a PCIe link resource.  A core is only a pinning
target: CPU work is charged as a rate-capped job on a DRAM node's
bandwidth, never as a held core.  The executor pins pipeline instances to
:class:`Core`/:class:`Gpu` objects (the paper's affinity control, Section
4.2), and the data-flow operators consult :meth:`Server.paths_between` to
route DMA traffic over the multi-path interconnect (PCIe links, the
inter-socket :class:`QpiLink`, and host-DRAM bounce buffers).

Memory-node identifiers follow the paper's NUMA framing: ``cpu:<socket>``
for socket-local DRAM and ``gpu:<gpu>`` for device memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .resources import BandwidthResource, FifoResource
from .sim import Simulator
from .specs import PAPER_SERVER, ServerSpec

__all__ = [
    "DeviceType",
    "DeviceLostError",
    "MemoryNode",
    "Core",
    "Socket",
    "Gpu",
    "PcieLink",
    "QpiLink",
    "Path",
    "Server",
]


class DeviceLostError(RuntimeError):
    """A compute device died while work depended on it.

    Raised out of every resource of a failed GPU (compute slot, PCIe
    link, HBM bandwidth, state allocations on its memory node) after
    :meth:`Server.fail_device`.  Deliberately *not* a ``MemoryError``
    subclass: memory managers must not re-wrap it as device-OOM — the
    scheduler's failure classifier treats device loss as retryable on a
    placement that excludes the dead device, while OOM stays fatal.
    """


class DeviceType(enum.Enum):
    """The two compute-device families HetExchange targets."""

    CPU = "cpu"
    GPU = "gpu"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class MemoryNode:
    """One NUMA memory node (socket DRAM or GPU device memory)."""

    node_id: str
    kind: DeviceType
    capacity_bytes: float
    bandwidth: BandwidthResource
    used_bytes: float = 0.0
    #: set by Server.fail_device: allocations raise DeviceLostError
    poisoned: Optional[str] = None

    def allocate(self, nbytes: float) -> None:
        """Track an allocation; raises when device memory is exhausted."""
        if self.poisoned is not None:
            raise DeviceLostError(self.poisoned)
        if self.used_bytes + nbytes > self.capacity_bytes:
            raise MemoryError(
                f"memory node {self.node_id} exhausted: "
                f"{self.used_bytes + nbytes:.3e} > {self.capacity_bytes:.3e} bytes"
            )
        self.used_bytes += nbytes

    def free(self, nbytes: float) -> None:
        self.used_bytes = max(0.0, self.used_bytes - nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MemoryNode {self.node_id}>"


@dataclass
class Core:
    """One physical CPU core: what a CPU pipeline instance is pinned to."""

    core_id: int
    socket_id: int

    @property
    def name(self) -> str:
        return f"core{self.core_id}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Core {self.core_id} socket={self.socket_id}>"


@dataclass
class Socket:
    """One CPU socket: a set of cores plus a local DRAM node."""

    socket_id: int
    cores: list[Core]
    memory: MemoryNode
    gpu_ids: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Socket {self.socket_id} cores={len(self.cores)}>"


@dataclass
class PcieLink:
    """The PCIe connection between a socket and one GPU."""

    gpu_id: int
    socket_id: int
    bandwidth: BandwidthResource

    @property
    def name(self) -> str:
        return f"pcie:{self.gpu_id}"

    @property
    def queue_depth(self) -> int:
        """DMA streams currently in flight on this link."""
        return self.bandwidth.active_jobs


@dataclass
class QpiLink:
    """The inter-socket interconnect (QPI/UPI) between two sockets.

    Every cross-socket transfer physically traverses this wire; what a
    route chooses is the *mechanism* (a single remote-read DMA stream,
    capped at :attr:`~repro.hardware.specs.ServerSpec.qpi_peer_dma_cap`,
    versus a NUMA-hop bounce through the destination socket's staging
    arena at the full pinned rate)."""

    socket_a: int
    socket_b: int
    bandwidth: BandwidthResource

    @property
    def name(self) -> str:
        return f"qpi:{self.socket_a}-{self.socket_b}"

    @property
    def queue_depth(self) -> int:
        """DMA streams currently in flight on this link."""
        return self.bandwidth.active_jobs


@dataclass
class Path:
    """One candidate route for a DMA between two memory nodes.

    A path is executed cut-through: the transfer occupies every ``links``
    entry and every host DRAM node in ``drams`` concurrently (a staged
    NUMA-hop relays block chunks through a bounce buffer, pipelining the
    two legs), and pays ``setups`` DMA-programming latencies up front.
    ``peer_dma`` marks routes whose single DMA engine issues
    remote-socket reads and is therefore capped below the local pinned
    rate.  :meth:`CostModel.transfer_demand
    <repro.hardware.costmodel.CostModel.transfer_demand>` prices a path
    against the live queue depths of these resources.
    """

    key: str
    src: str
    dst: str
    links: tuple = ()
    drams: tuple = ()
    setups: int = 1
    peer_dma: bool = False

    @property
    def is_local(self) -> bool:
        return not self.links and not self.drams

    @property
    def queue_depth(self) -> int:
        """Deepest per-link DMA queue along the route."""
        return max((link.queue_depth for link in self.links), default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Path {self.key} {self.src}->{self.dst}>"


@dataclass
class Gpu:
    """One GPU: device memory, a serialized compute engine, a PCIe link."""

    gpu_id: int
    socket_id: int
    memory: MemoryNode
    compute: FifoResource
    link: PcieLink
    #: cleared by Server.fail_device; dead GPUs are excluded from
    #: retry placements and never revived within a simulation
    alive: bool = True

    @property
    def name(self) -> str:
        return f"gpu{self.gpu_id}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gpu {self.gpu_id} socket={self.socket_id}>"


class Server:
    """A fully wired simulated heterogeneous server.

    Construct via :meth:`Server.paper_machine` (or ``Server(sim, spec)``),
    which needs a live
    :class:`~repro.hardware.sim.Simulator` because all shared resources are
    simulation objects.
    """

    def __init__(self, sim: Simulator, spec: ServerSpec):
        self.sim = sim
        self.spec = spec
        self.sockets: list[Socket] = []
        self.cores: list[Core] = []
        self.gpus: list[Gpu] = []
        self.memory_nodes: dict[str, MemoryNode] = {}

        core_id = 0
        gpu_id = 0
        for socket_id in range(spec.num_sockets):
            dram = MemoryNode(
                node_id=f"cpu:{socket_id}",
                kind=DeviceType.CPU,
                capacity_bytes=spec.dram_capacity_per_socket,
                bandwidth=BandwidthResource(
                    sim, spec.socket_dram_bandwidth, name=f"dram:{socket_id}"
                ),
            )
            self.memory_nodes[dram.node_id] = dram
            cores = []
            for _ in range(spec.cores_per_socket):
                cores.append(Core(core_id=core_id, socket_id=socket_id))
                core_id += 1
            socket = Socket(socket_id=socket_id, cores=cores, memory=dram)
            self.sockets.append(socket)
            self.cores.extend(cores)
            for _ in range(spec.gpus_per_socket[socket_id]):
                hbm = MemoryNode(
                    node_id=f"gpu:{gpu_id}",
                    kind=DeviceType.GPU,
                    capacity_bytes=spec.gpu_memory_capacity,
                    bandwidth=BandwidthResource(
                        sim, spec.gpu_memory_bandwidth, name=f"hbm:{gpu_id}"
                    ),
                )
                self.memory_nodes[hbm.node_id] = hbm
                link = PcieLink(
                    gpu_id=gpu_id,
                    socket_id=socket_id,
                    bandwidth=BandwidthResource(
                        sim, spec.pcie_bandwidth, name=f"pcie:{gpu_id}"
                    ),
                )
                gpu = Gpu(
                    gpu_id=gpu_id,
                    socket_id=socket_id,
                    memory=hbm,
                    compute=FifoResource(sim, name=f"gpu{gpu_id}"),
                    link=link,
                )
                self.gpus.append(gpu)
                socket.gpu_ids.append(gpu_id)
                gpu_id += 1

        #: gpu ids killed by fail_device (never revived in-simulation)
        self.failed_gpus: set[int] = set()
        #: memoized route enumerations (the topology is immutable after
        #: construction, and paths_between sits on per-block hot paths)
        self._paths: dict[tuple[str, str], list[Path]] = {}
        #: inter-socket links, keyed by the ordered socket pair
        self.qpi_links: dict[tuple[int, int], QpiLink] = {}
        for a in range(spec.num_sockets):
            for b in range(a + 1, spec.num_sockets):
                self.qpi_links[(a, b)] = QpiLink(
                    socket_a=a, socket_b=b,
                    bandwidth=BandwidthResource(
                        sim, spec.qpi_bandwidth, name=f"qpi:{a}-{b}"
                    ),
                )

    # -- constructors ----------------------------------------------------

    @classmethod
    def paper_machine(cls, sim: Simulator) -> "Server":
        """The 2-socket, 24-core, 2-GPU server of the paper's evaluation."""
        return cls(sim, PAPER_SERVER)

    # -- fault injection -------------------------------------------------

    def fail_device(self, gpu_id: int, reason: str = "") -> bool:
        """Kill one GPU: mark it dead and poison every resource it owns.

        In-flight DMAs on any path through its PCIe link or HBM fail
        immediately with :class:`DeviceLostError`, as do queued and
        future kernel launches on its compute slot and state
        allocations on its memory node.  The topology itself (path
        enumerations, sibling devices, host DRAM) is untouched — routes
        that do not traverse the dead device keep working.  Returns
        False when the GPU was already dead (idempotent); raises on an
        unknown gpu id.
        """
        if gpu_id < 0 or gpu_id >= len(self.gpus):
            raise ValueError(
                f"no gpu {gpu_id} on this server (have {len(self.gpus)})"
            )
        gpu = self.gpus[gpu_id]
        if not gpu.alive:
            return False
        gpu.alive = False
        self.failed_gpus.add(gpu_id)
        detail = f"gpu{gpu_id} lost" + (f": {reason}" if reason else "")
        exc = DeviceLostError(detail)
        gpu.memory.poisoned = detail
        gpu.compute.poison(exc)
        gpu.link.bandwidth.poison(exc)
        gpu.memory.bandwidth.poison(exc)
        return True

    # -- lookups ---------------------------------------------------------

    def socket_of(self, node_id: str) -> int:
        """Socket that owns (or hosts the PCIe link of) a memory node."""
        node = self.memory_nodes[node_id]
        if node.kind is DeviceType.CPU:
            return int(node_id.split(":")[1])
        return self.gpus[int(node_id.split(":")[1])].socket_id

    def gpu_for_node(self, node_id: str) -> Optional[Gpu]:
        node = self.memory_nodes[node_id]
        if node.kind is DeviceType.GPU:
            return self.gpus[int(node_id.split(":")[1])]
        return None

    def dram_node(self, socket_id: int) -> MemoryNode:
        return self.memory_nodes[f"cpu:{socket_id}"]

    def qpi_between(self, socket_a: int, socket_b: int) -> Optional[QpiLink]:
        """The inter-socket link between two sockets (None when same)."""
        if socket_a == socket_b:
            return None
        pair = (min(socket_a, socket_b), max(socket_a, socket_b))
        return self.qpi_links[pair]

    def paths_between(self, src_node: str, dst_node: str) -> list[Path]:
        """Every candidate DMA route from ``src_node`` to ``dst_node``.

        The first entry is the *direct* route (the legacy single-engine
        path); alternatives follow in a fixed order so that cost-based
        selection with a strict ``<`` comparison falls back
        deterministically.  Same-node pairs get the single zero-cost
        local path.  Enumerations are memoized — the topology never
        changes after construction, and this sits on the per-block
        routing hot path.
        """
        cached = self._paths.get((src_node, dst_node))
        if cached is None:
            cached = self._enumerate_paths(src_node, dst_node)
            self._paths[(src_node, dst_node)] = cached
        return cached

    def _enumerate_paths(self, src_node: str, dst_node: str) -> list[Path]:
        if src_node == dst_node:
            return [Path(key="local", src=src_node, dst=dst_node, setups=0)]
        src = self.memory_nodes[src_node]
        dst = self.memory_nodes[dst_node]
        src_socket = self.socket_of(src_node)
        dst_socket = self.socket_of(dst_node)
        qpi = self.qpi_between(src_socket, dst_socket)
        src_gpu = self.gpu_for_node(src_node)
        dst_gpu = self.gpu_for_node(dst_node)

        if src.kind is DeviceType.CPU and dst.kind is DeviceType.CPU:
            # One mechanism: a DMA engine streaming over QPI, reading the
            # source socket's DRAM and writing the destination's.
            assert qpi is not None
            return [Path(key="qpi", src=src_node, dst=dst_node,
                         links=(qpi,), drams=(src, dst))]

        if src.kind is DeviceType.CPU or dst.kind is DeviceType.CPU:
            # CPU <-> GPU.  host is the DRAM end, gpu the device end.
            host = src if src.kind is DeviceType.CPU else dst
            gpu = dst_gpu if dst_gpu is not None else src_gpu
            assert gpu is not None
            if qpi is None:
                return [Path(key="pcie", src=src_node, dst=dst_node,
                             links=(gpu.link,), drams=(host,))]
            # Cross-socket: direct remote-read DMA (one engine, one
            # setup, capped at the peer rate) versus the NUMA hop (bounce
            # through the GPU-side socket's staging arena: full pinned
            # rate, but a second DRAM touch and a second setup).
            bounce = self.dram_node(gpu.socket_id)
            return [
                Path(key="qpi-direct", src=src_node, dst=dst_node,
                     links=(qpi, gpu.link), drams=(host,), peer_dma=True),
                Path(key=f"numa-hop:{bounce.node_id}", src=src_node,
                     dst=dst_node, links=(qpi, gpu.link),
                     drams=(host, bounce), setups=2),
            ]

        # GPU <-> GPU: no NVLink on the paper's server, so peer traffic
        # bounces through a host socket — the route choice is WHICH one.
        assert src_gpu is not None and dst_gpu is not None
        links: tuple = (src_gpu.link, dst_gpu.link)
        if qpi is None:
            bounce = self.dram_node(src_gpu.socket_id)
            return [Path(key=f"host-bounce:{bounce.node_id}", src=src_node,
                         dst=dst_node, links=links, drams=(bounce,),
                         setups=2)]
        links = (src_gpu.link, qpi, dst_gpu.link)
        via_src = self.dram_node(src_gpu.socket_id)
        via_dst = self.dram_node(dst_gpu.socket_id)
        return [
            Path(key=f"host-bounce:{via_src.node_id}", src=src_node,
                 dst=dst_node, links=links, drams=(via_src,), setups=2,
                 peer_dma=True),
            Path(key=f"host-bounce:{via_dst.node_id}", src=src_node,
                 dst=dst_node, links=links, drams=(via_dst,), setups=2,
                 peer_dma=True),
        ]

    def interleaved_dram_nodes(self) -> list[MemoryNode]:
        """DRAM nodes in socket order, for interleaved data placement."""
        return [socket.memory for socket in self.sockets]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Server sockets={len(self.sockets)} cores={len(self.cores)} "
            f"gpus={len(self.gpus)}>"
        )
