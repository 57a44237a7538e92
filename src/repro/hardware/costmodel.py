"""Calibrated cost model: converts pipeline work into simulated durations.

Correctness in this reproduction comes from really executing generated
NumPy pipelines over real blocks; *timing* comes from this module.  Every
block a pipeline processes produces a :class:`BlockStats` record (the JIT
instruments the generated code), and the cost model converts those stats
plus the target device into resource demands:

* on a CPU core: the block's effective byte stream is submitted to the
  socket's DRAM bandwidth resource with a rate cap of
  ``min(core streaming rate, bytes / compute_time)`` — compute-bound
  pipelines self-limit, memory-bound pipelines saturate the bus together;
* on a GPU: the stream is submitted to the GPU's HBM resource, the kernel
  additionally pays the launch latency, and compute-bound kernels are
  limited by an aggregate device op rate;
* transfers: bytes cross each PCIe link on the path *and* consume host
  DRAM bandwidth (this coupling produces the paper's compute/transfer
  interference past ~16 cores, Figure 6).

Random (pointer-chasing) accesses — hash-table builds and probes — are
amplified to cache-line granularity on CPUs; on GPUs the massive thread
count hides latency, so the amplification is smaller but nonzero.  This is
what makes the paper's join microbenchmark "GPU-friendly" (Section 6.4).

Baselines reuse the model through :class:`EngineTuning` overrides:

* DBMS C (vector-at-a-time) materialises every intermediate vector, so its
  effective byte stream is inflated by ``materialize_factor``;
* DBMS G (GPU JIT) runs at 0.5 occupancy (the paper observed it allocating
  2x the registers per thread block) and uses pageable host memory for
  out-of-core transfers (< half the pinned DMA bandwidth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .specs import ServerSpec
from .topology import DeviceType

__all__ = [
    "BlockStats",
    "WorkRequest",
    "BlockPrice",
    "TransferPlan",
    "QueryDemand",
    "EngineTuning",
    "CostModel",
    "DEFAULT_COMPILE_SECONDS",
]

_TINY = 1e-15

#: simulated JIT compilation latency for a baseline (CPU, small) pipeline
#: — the paper reports generation + compilation in the tens of
#: milliseconds per pipeline.  Per-stage charges scale this by device and
#: operator count (:meth:`CostModel.compile_demand`); cache hits skip it
#: entirely.
DEFAULT_COMPILE_SECONDS = 25e-3


@dataclass
class BlockStats:
    """Work accounting for one block through one pipeline.

    Generated pipelines fill this in as they run; all fields are *physical*
    counts (the logical scale factor is applied by the cost model).
    """

    tuples_in: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: number of random lookups (hash build inserts + probe reads)
    random_accesses: int = 0
    #: bytes touched per random access before cache-line amplification
    random_bytes: int = 0
    #: estimated x86 cycles for the whole block (CPU execution)
    cpu_cycles: float = 0.0
    #: abstract device-wide op units for the whole block (GPU execution)
    gpu_ops: float = 0.0

    def merge(self, other: "BlockStats") -> None:
        self.tuples_in += other.tuples_in
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out
        self.random_accesses += other.random_accesses
        self.random_bytes += other.random_bytes
        self.cpu_cycles += other.cpu_cycles
        self.gpu_ops += other.gpu_ops

    def scaled(self, factor: float) -> "BlockStats":
        """These counts times ``factor``: a price input, or one morsel's
        share of a block's work, which the morsel charges; never a record."""
        return BlockStats(
            tuples_in=self.tuples_in * factor,
            bytes_in=self.bytes_in * factor,
            bytes_out=self.bytes_out * factor,
            random_accesses=self.random_accesses * factor,
            random_bytes=self.random_bytes * factor,
            cpu_cycles=self.cpu_cycles * factor,
            gpu_ops=self.gpu_ops * factor,
        )


@dataclass(frozen=True)
class WorkRequest:
    """A demand to place on a bandwidth resource.

    ``setup_seconds`` is paid before the bandwidth job starts (kernel
    launch, DMA programming).
    """

    work_bytes: float
    rate_cap: float
    setup_seconds: float = 0.0

    @property
    def min_duration(self) -> float:
        return self.setup_seconds + self.work_bytes / self.rate_cap


@dataclass(frozen=True)
class BlockPrice:
    """One instance's estimated seconds for a block, and for a CPU the
    most cores its socket's DRAM feeds at that block's per-core rate."""

    seconds: float
    cores_fed: int = 1


@dataclass(frozen=True)
class TransferPlan:
    """Resource demands for moving ``nbytes`` between two memory nodes."""

    nbytes: float
    link_rate_cap: float
    setup_seconds: float


@dataclass(frozen=True)
class QueryDemand:
    """Admission-control estimate of one query's peak shared-resource use.

    Produced by :meth:`CostModel.admission_demand` before a query starts;
    the multi-query scheduler charges it against a shared
    :class:`~repro.engine.scheduler.ResourceBudget` and releases the exact
    same amounts on completion (conservation is asserted by tests).

    ``priority`` and ``deadline_seconds`` travel with the demand so the
    scheduler's admission queue can rank entries without a side channel;
    they are *scheduling* attributes, not resources, and are therefore
    excluded from :meth:`as_dict` (which defines the budget dimensions).
    """

    #: host DRAM held by operator state + staging (logical bytes)
    dram_bytes: float = 0.0
    #: GPU HBM held by per-device hash tables + staging (logical bytes)
    hbm_bytes: float = 0.0
    #: stream volume that must cross PCIe links (logical bytes)
    pcie_bytes: float = 0.0
    #: stream volume that must cross the inter-socket interconnect
    #: (logical bytes; topology-routed transfers whose source socket
    #: holds no target device)
    qpi_bytes: float = 0.0
    #: CPU worker threads the query pins
    cpu_cores: int = 0
    #: GPU devices the query launches kernels on
    gpu_units: int = 0
    #: scheduling class: larger values are served first (0 = batch)
    priority: int = 0
    #: latency SLO relative to submission; None means no deadline
    deadline_seconds: Optional[float] = None

    def as_dict(self) -> dict[str, float]:
        """Budget dimensions only — never the scheduling attributes."""
        return {
            "dram_bytes": self.dram_bytes,
            "hbm_bytes": self.hbm_bytes,
            "pcie_bytes": self.pcie_bytes,
            "qpi_bytes": self.qpi_bytes,
            "cpu_cores": float(self.cpu_cores),
            "gpu_units": float(self.gpu_units),
        }


@dataclass(frozen=True)
class EngineTuning:
    """Per-engine efficiency knobs layered over the hardware spec."""

    #: CPU cache-line amplification of random accesses.
    cpu_random_amplification: float = 4.0
    #: GPU amplification: the SIMT thread count hides the *latency* of a
    #: random probe, but every 8-16 B probe payload still drags a full
    #: 32 B memory-transaction sector through the controller, and tables
    #: spilled past the 2 MB on-chip cache add TLB walks on top — the
    #: bandwidth waste survives even at full occupancy.
    gpu_random_amplification: float = 3.6
    #: Aggregate GPU op throughput (op units / second) at full occupancy.
    gpu_compute_rate: float = 400e9
    #: Fraction of GPU resources usable (register pressure, occupancy).
    gpu_occupancy: float = 1.0
    #: Effective fraction of GPU memory bandwidth usable by kernels.
    gpu_bandwidth_efficiency: float = 0.85
    #: Multiplier on streamed bytes for engines that materialise
    #: intermediates (vector-at-a-time; 1.0 for register pipelining).
    materialize_factor: float = 1.0
    #: Multiplier on CPU cycles (interpretation / per-vector dispatch).
    cpu_dispatch_overhead: float = 1.0
    #: Host->device copy bandwidth cap; None means pinned DMA at link rate.
    pageable_transfer_bandwidth: Optional[float] = None
    #: Extra fixed time per kernel launch relative to the spec (DBMS G
    #: launches one kernel per operator instead of per pipeline).
    kernel_launch_multiplier: float = 1.0
    #: JIT compile-cost multiplier for GPU pipelines relative to CPU
    #: ones: device codegen + NVRTC/PTX compilation + module load is
    #: roughly an order of magnitude slower than host LLVM JIT for the
    #: same pipeline (the paper's per-device compilation breakdown).
    gpu_compile_multiplier: float = 8.0
    #: Marginal compile cost per fused operator beyond a minimal
    #: (unpack + sink) pipeline — longer operator chains generate and
    #: optimise more code.
    compile_complexity_per_op: float = 0.15


#: Proteus with HetExchange: register-pipelined JIT code on both devices.
PROTEUS_TUNING = EngineTuning()

#: DBMS C: columnar SIMD vector-at-a-time CPU engine (MonetDB/X100 style).
#: Intermediate-vector materialisation is accounted *explicitly* by the
#: DBMSC proxy (bitmaps + compacted vectors per operator), so the factor
#: here stays 1; the dispatch overhead models per-vector interpretation.
DBMS_C_TUNING = EngineTuning(
    materialize_factor=1.0,
    cpu_dispatch_overhead=1.15,
)

#: DBMS G: JIT GPU engine; 2x register allocation halves occupancy, data
#: staged in pageable memory when out-of-core.
#: Halved occupancy also halves the latency-hiding head-room, so random
#: gathers on spilled dense arrays are strongly latency-bound (the high
#: random amplification below).
DBMS_G_TUNING = EngineTuning(
    gpu_occupancy=0.5,
    gpu_bandwidth_efficiency=0.62,
    gpu_random_amplification=6.0,
    pageable_transfer_bandwidth=5.0e9,
    kernel_launch_multiplier=4.0,
)


class CostModel:
    """Turns :class:`BlockStats` into resource demands for one engine."""

    def __init__(self, spec: ServerSpec, tuning: EngineTuning = PROTEUS_TUNING):
        self.spec = spec
        self.tuning = tuning

    # -- CPU --------------------------------------------------------------

    def cpu_block_work(self, stats: BlockStats, scale: float = 1.0) -> WorkRequest:
        """Demand one core places on its socket's DRAM resource."""
        t = self.tuning
        bytes_eff = (
            (stats.bytes_in + stats.bytes_out) * t.materialize_factor
            + stats.random_bytes * t.cpu_random_amplification
        ) * scale
        compute_seconds = (
            stats.cpu_cycles * t.cpu_dispatch_overhead * scale / self.spec.cpu_frequency_hz
        )
        if bytes_eff <= 0:
            # Pure compute: emulate with a tiny stream at a rate that yields
            # exactly the compute time.
            bytes_eff = 1.0
        rate_cap = min(
            self.spec.core_stream_bandwidth,
            bytes_eff / max(compute_seconds, _TINY),
        )
        return WorkRequest(work_bytes=bytes_eff, rate_cap=rate_cap)

    # -- GPU --------------------------------------------------------------

    def gpu_block_work(self, stats: BlockStats, scale: float = 1.0) -> WorkRequest:
        """Demand one kernel places on the GPU's HBM resource."""
        t = self.tuning
        bytes_eff = (
            (stats.bytes_in + stats.bytes_out)
            + stats.random_bytes * t.gpu_random_amplification
        ) * scale
        effective_rate = t.gpu_compute_rate * t.gpu_occupancy
        compute_seconds = stats.gpu_ops * scale / effective_rate
        if bytes_eff <= 0:
            bytes_eff = 1.0
        rate_cap = min(
            self.spec.gpu_memory_bandwidth * t.gpu_bandwidth_efficiency * t.gpu_occupancy,
            bytes_eff / max(compute_seconds, _TINY),
        )
        launch = self.spec.kernel_launch_seconds * t.kernel_launch_multiplier
        return WorkRequest(work_bytes=bytes_eff, rate_cap=rate_cap, setup_seconds=launch)

    # -- transfers ---------------------------------------------------------

    def transfer_plan(self, nbytes: float, scale: float = 1.0) -> TransferPlan:
        """Demands for one DMA transfer of ``nbytes`` physical bytes."""
        t = self.tuning
        link_cap = self.spec.pcie_stream_cap
        if t.pageable_transfer_bandwidth is not None:
            link_cap = min(link_cap, t.pageable_transfer_bandwidth)
        return TransferPlan(
            nbytes=nbytes * scale,
            link_rate_cap=link_cap,
            setup_seconds=self.spec.dma_setup_seconds,
        )

    def path_rate_cap(self, path) -> float:
        """Peak rate one DMA stream reaches over ``path``.

        The pinned stream cap (or the pageable cap for engines staging
        through pageable memory), further limited to the peer-DMA rate
        on routes whose engine issues remote-socket reads.
        """
        cap = self.spec.pcie_stream_cap
        if self.tuning.pageable_transfer_bandwidth is not None:
            cap = min(cap, self.tuning.pageable_transfer_bandwidth)
        if path.peer_dma:
            cap = min(cap, self.spec.qpi_peer_dma_cap)
        return cap

    def transfer_demand(self, nbytes: float, path, scale: float = 1.0) -> float:
        """Estimated seconds to move ``nbytes`` over ``path`` right now.

        Prices the route against the *live* queue depths of every link
        and host DRAM node it occupies: each resource's contribution is
        its capacity split evenly with the jobs already in flight (an
        estimate — the simulator's water-filling allocation is weighted
        and rate-capped, but equal split is monotone in queue depth,
        which is all route selection needs), the whole route is capped
        at :meth:`path_rate_cap`, and each DMA-programming step adds a
        setup latency.  Deterministic: depends only on simulator state
        at the call instant.  A local path costs exactly zero.
        """
        if path.is_local:
            return 0.0
        rate = self.path_rate_cap(path)
        for link in path.links:
            bw = link.bandwidth
            rate = min(rate, bw.capacity / (1 + bw.active_jobs))
        for dram in path.drams:
            bw = dram.bandwidth
            rate = min(rate, bw.capacity / (1 + bw.active_jobs))
        return path.setups * self.spec.dma_setup_seconds + (
            nbytes * scale / rate
        )

    # -- block price ---------------------------------------------------------

    def block_price(
        self,
        stats: BlockStats,
        device: DeviceType,
        scale: float = 1.0,
        wire_bytes: Optional[float] = None,
    ) -> BlockPrice:
        """One instance's uncontended seconds for a block of work ``stats``
        on ``device`` (a cold load-balance router's price).

        A GPU reading ``wire_bytes`` from another node takes the longer of
        the kernel and the block's wire time, which overlap under
        prefetching.  A CPU price also counts the cores its socket's DRAM
        feeds at the block's per-core rate, ``floor(B / rate_cap)`` and at
        least one: a block cut into ``k`` morsels of ``seconds / k`` each
        prices a morsel below the block's work over ``B`` unless ``k``
        stays within that count.
        """
        if device is DeviceType.CPU:
            req = self.cpu_block_work(stats, scale)
            fed = math.floor(self.spec.socket_dram_bandwidth / req.rate_cap)
            return BlockPrice(req.min_duration, max(1, fed))
        seconds = self.gpu_block_work(stats, scale).min_duration
        if wire_bytes is not None:
            plan = self.transfer_plan(wire_bytes, scale)
            wire = plan.setup_seconds + plan.nbytes / plan.link_rate_cap
            seconds = max(seconds, wire)
        return BlockPrice(seconds)

    # -- admission control ---------------------------------------------------

    def admission_demand(
        self,
        *,
        streamed_bytes: float,
        cpu_state_bytes: float = 0.0,
        gpu_state_bytes: float = 0.0,
        cpu_workers: int = 0,
        gpu_units: int = 0,
        gpu_streaming: bool = False,
        cross_socket_bytes: float = 0.0,
        staging_bytes_per_worker: float = 0.0,
        gpu_staging_bytes_per_unit: Optional[float] = None,
        priority: int = 0,
        deadline_seconds: Optional[float] = None,
    ) -> QueryDemand:
        """Estimate a query's peak demand on the shared server.

        ``streamed_bytes`` is the logical working set the query scans;
        ``*_state_bytes`` are the hash tables it builds per device domain
        (the CPU domain builds one shared table, each GPU builds a private
        copy); ``gpu_streaming`` means GPU consumers read host-resident
        data, so the streamed working set crosses PCIe;
        ``cross_socket_bytes`` is the share of that stream resident on
        sockets holding none of the target devices, which must also
        cross the inter-socket interconnect (the placer's
        ``transfer_profile`` computes it from the topology paths).
        ``staging_bytes_per_worker`` charges each CPU worker's inline
        staging slack; ``gpu_staging_bytes_per_unit`` (defaulting to the
        same figure) charges each GPU's prefetch pipeline, which deepens
        with the query's configured ``prefetch_depth`` — CPU workers
        never prefetch, so their charge is depth-independent.
        Materialising engines (``materialize_factor`` > 1) hold
        proportionally more intermediate state in DRAM.
        """
        t = self.tuning
        dram = (
            cpu_state_bytes * t.materialize_factor
            + cpu_workers * staging_bytes_per_worker
        )
        hbm = 0.0
        pcie = 0.0
        qpi = 0.0
        if gpu_units:
            gpu_staging = (
                staging_bytes_per_worker
                if gpu_staging_bytes_per_unit is None
                else gpu_staging_bytes_per_unit
            )
            hbm = gpu_units * (gpu_state_bytes + gpu_staging)
            if gpu_streaming:
                pcie = streamed_bytes
                qpi = cross_socket_bytes
        return QueryDemand(
            dram_bytes=dram,
            hbm_bytes=hbm,
            pcie_bytes=pcie,
            qpi_bytes=qpi,
            cpu_cores=int(cpu_workers),
            gpu_units=int(gpu_units),
            priority=priority,
            deadline_seconds=deadline_seconds,
        )

    # -- compilation ---------------------------------------------------------

    def compile_demand(
        self, stage, base_seconds: Optional[float] = None
    ) -> float:
        """Simulated JIT compile latency for one stage's pipeline.

        Replaces the flat per-pipeline constant the scheduler used to
        charge on every cache miss: a GPU pipeline is charged
        ``gpu_compile_multiplier`` (~5–10x) times the CPU base — device
        codegen, NVRTC-style compilation and module load dominate — and
        either device pays ``compile_complexity_per_op`` more per fused
        operator beyond the minimal unpack+sink pair, so a five-way
        probe chain costs visibly more than a trivial filter.  The same
        estimate prices cache entries for cost-aware eviction
        (the ``cost_aware`` rule of :mod:`repro.jit.cache`), so miss penalties
        match what eviction scores assume.

        ``base_seconds`` rescales the whole model (the scheduler's
        ``compile_seconds`` knob; 0 disables compile charging); it
        defaults to :data:`DEFAULT_COMPILE_SECONDS`.
        """
        if base_seconds is None:
            base_seconds = DEFAULT_COMPILE_SECONDS
        t = self.tuning
        multiplier = (
            t.gpu_compile_multiplier
            if stage.device is DeviceType.GPU
            else 1.0
        )
        ops = len(stage.ops)
        complexity = 1.0 + t.compile_complexity_per_op * max(0, ops - 2)
        return base_seconds * multiplier * complexity

    # -- fixed overheads ----------------------------------------------------

    @property
    def router_init_seconds(self) -> float:
        return self.spec.router_init_seconds

    @property
    def task_spawn_seconds(self) -> float:
        return self.spec.task_spawn_seconds

    @property
    def kernel_launch_seconds(self) -> float:
        return self.spec.kernel_launch_seconds * self.tuning.kernel_launch_multiplier


# Rough per-operator cycle weights used by codegen to fill BlockStats.
# These are classic micro-architectural estimates for tight JIT loops over
# columnar data (compare Neumann'11 / HyPer reports): a predicate is a
# handful of cycles, a hash probe costs hashing plus a dependent load.
@dataclass(frozen=True)
class OperatorCycleWeights:
    #: branchy scalar comparisons in generated code (not SIMD-friendly
    #: once mixed with selection logic) — calibrated so SSB Q1.x lands
    #: near the paper's CPU times at 1.8 GHz
    filter_per_predicate: float = 5.0
    arithmetic_per_op: float = 2.0
    hash_compute: float = 6.0
    hash_probe: float = 14.0  # plus the random memory traffic, charged via bytes
    hash_build_insert: float = 20.0
    #: streaming reductions vectorise well (the Figure 7 sum microbench
    #: reaches the per-core streaming rate)
    aggregate_update: float = 0.75
    group_lookup: float = 12.0
    pack_per_tuple: float = 3.0
    unpack_per_tuple: float = 0.5
    string_compare: float = 12.0

    # GPU op-unit weights: SIMT lanes make per-tuple control logic cheap;
    # the device-wide op rate in EngineTuning absorbs the parallelism.
    gpu_filter_per_predicate: float = 1.0
    gpu_arithmetic_per_op: float = 1.0
    gpu_hash_compute: float = 2.0
    gpu_hash_probe: float = 3.0
    gpu_hash_build_insert: float = 8.0
    gpu_aggregate_update: float = 2.0
    gpu_group_lookup: float = 4.0
    gpu_pack_per_tuple: float = 1.0
    gpu_unpack_per_tuple: float = 0.5
    gpu_string_compare: float = 6.0


CYCLES = OperatorCycleWeights()
