"""Calibrated hardware constants for the simulated server.

Every number here is either reported directly in the paper (Section 6,
"Experimental Setup" and the microbenchmarks) or derived from a measurement
the paper states.  The cost model (:mod:`repro.hardware.costmodel`) treats
this module as the single source of truth, so re-calibrating the
reproduction to a different machine means editing one dataclass.

Paper-reported anchors:

* 2 sockets x 12 physical cores, Xeon E5-2650L v3 @ 1.8 GHz;
* 256 GB DRAM total, 128 GB per socket, 8/12 memory channels populated,
  measured machine-wide bandwidth ~90.6 GB/s (sum microbenchmark saturates
  at 89.7 GB/s with ~16 cores => per-core streaming rate ~5.6 GB/s);
* one NVIDIA GTX 1080 per socket: 8 GB device memory, 320 GB/s HBM;
* dedicated PCIe 3.0 x16 per GPU, measured ~12 GB/s per link (~24 GB/s
  aggregate, the dotted bound in Figure 5);
* router initialisation and thread pinning ~10 ms (Figure 8 discussion);
* DBMS G uses pageable host memory => less than half the transfer
  bandwidth on Q1.x at SF1000.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ServerSpec", "PAPER_SERVER"]

GB = 1e9


@dataclass(frozen=True)
class ServerSpec:
    """Static description of a heterogeneous server.

    The default values describe the paper's evaluation machine.
    """

    # CPU side ----------------------------------------------------------
    num_sockets: int = 2
    cores_per_socket: int = 12
    cpu_frequency_hz: float = 1.8e9
    #: Peak DRAM bandwidth of one socket (machine total ~90.6 GB/s).
    socket_dram_bandwidth: float = 45.3 * GB
    #: Streaming rate achievable by a single core (sum saturates ~16 cores).
    core_stream_bandwidth: float = 5.6 * GB
    dram_capacity_per_socket: float = 128 * GB

    # GPU side ----------------------------------------------------------
    num_gpus: int = 2
    gpu_memory_bandwidth: float = 320 * GB
    gpu_memory_capacity: float = 8 * GB
    #: Effective per-link PCIe 3.0 x16 bandwidth as measured in the paper.
    pcie_bandwidth: float = 12 * GB
    #: Single pinned-memory DMA stream can saturate the link.
    pcie_stream_cap: float = 12 * GB

    # Inter-socket interconnect -----------------------------------------
    #: Aggregate QPI bandwidth between the two sockets (2 x 9.6 GT/s
    #: links on the E5-2650L v3); shared by every cross-socket DMA.
    qpi_bandwidth: float = 19.2 * GB
    #: Effective rate of a single DMA stream issuing *remote-socket*
    #: reads (per-TLP QPI round trips keep one engine below the local
    #: pinned rate); a NUMA-hop bounce through the destination socket's
    #: staging arena avoids this cap at the price of an extra DRAM touch
    #: and a second DMA programming step.
    qpi_peer_dma_cap: float = 11 * GB

    # Caches ---------------------------------------------------------------
    #: last-level cache per socket (E5-2650L v3: 30 MB); hash tables that
    #: fit stay on-chip and their probes cost no DRAM traffic
    cpu_llc_bytes: float = 30e6
    #: effective GPU on-chip cache (L2 + texture)
    gpu_cache_bytes: float = 2e6

    # Fixed overheads ----------------------------------------------------
    kernel_launch_seconds: float = 10e-6
    dma_setup_seconds: float = 5e-6
    #: Router instantiation + thread pinning (Figure 8: ~10 ms dominates
    #: small inputs).
    router_init_seconds: float = 10e-3
    #: Cost of spawning a task on another device (device-crossing).
    task_spawn_seconds: float = 4e-6

    # Topology -----------------------------------------------------------
    #: gpus_per_socket derived; the paper attaches one GPU per socket.
    gpus_per_socket: tuple[int, ...] = field(default=(1, 1))

    def __post_init__(self) -> None:
        if len(self.gpus_per_socket) != self.num_sockets:
            raise ValueError(
                f"gpus_per_socket has {len(self.gpus_per_socket)} entries "
                f"for {self.num_sockets} sockets"
            )
        if sum(self.gpus_per_socket) != self.num_gpus:
            raise ValueError(
                f"gpus_per_socket sums to {sum(self.gpus_per_socket)}, "
                f"expected {self.num_gpus}"
            )

    @property
    def total_cores(self) -> int:
        return self.num_sockets * self.cores_per_socket

    @property
    def aggregate_pcie_bandwidth(self) -> float:
        return self.num_gpus * self.pcie_bandwidth

    @property
    def aggregate_gpu_memory(self) -> float:
        return self.num_gpus * self.gpu_memory_capacity

    def scaled(self, **overrides) -> "ServerSpec":
        """Return a copy with selected fields replaced (for custom servers)."""
        from dataclasses import replace

        return replace(self, **overrides)


#: The machine used throughout the paper's evaluation.
PAPER_SERVER = ServerSpec()
