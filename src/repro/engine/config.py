"""Execution configurations: which compute units a query may use.

Mirrors the paper's evaluated configurations:

* ``ExecutionConfig.cpu_only(n)``   — Proteus CPUs (n worker threads);
* ``ExecutionConfig.gpu_only([..])`` — Proteus GPUs;
* ``ExecutionConfig.hybrid(n, [..])`` — Proteus Hybrid (CPUs + GPUs);
* ``bare=True`` — Proteus *without* HetExchange (Figures 7 and 8): a single
  sequential pipeline on one CPU core or one GPU, no routers, no mem-moves
  (the GPU reads host memory through UVA, as in the paper's comparison
  point [36]).

Configurations are frozen (hashable, safely shared across concurrent
queries in a multi-query batch); :meth:`ExecutionConfig.derive` produces
a modified copy for sweeps that vary one knob.

:class:`QoS` is the multi-query counterpart: the *scheduling* contract of
one submission (priority class + latency SLO), as opposed to the
*execution* shape above.  The :class:`~repro.engine.scheduler.EngineServer`
ranks its admission queue by priority, then earliest deadline.

:class:`ElasticPolicy` parameterises the server's elastic-dop controller:
with ``EngineServer(elastic=True)`` the scheduler may shrink or grow a
query's CPU worker set between phases, within ``[min_dop, max_dop]``,
driven by the observed DRAM utilization against ``target_utilization``.

:class:`CachePolicy` parameterises the compiled-pipeline cache the same
way: capacity and the eviction rule (``lru`` / the GDSF-style
``cost_aware`` that keeps expensive-to-compile GPU pipelines resident
longer).

The *tenant* contract (weights, quotas, rate limits) lives in
:class:`repro.engine.tenancy.Tenant`, re-exported here alongside the
other per-submission knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence

from ..core.mem_move import DEFAULT_PREFETCH_DEPTH
from ..hardware.topology import DeviceType
from ..jit.cache import EVICTION_RULES
from .tenancy import RateLimit, Tenant

__all__ = [
    "ExecutionConfig",
    "CachePolicy",
    "ElasticPolicy",
    "QoS",
    "RateLimit",
    "Tenant",
]


@dataclass(frozen=True)
class QoS:
    """Quality-of-service class for one query submission.

    ``priority`` is an ordinal: larger values are served first (the
    scale is open-ended so workloads can define their own ladder).
    ``deadline_seconds`` is a latency SLO relative to submission time;
    the scheduler uses it for earliest-deadline-first ordering *within*
    a priority class and reports per-class deadline-hit rates.  A
    deadline never causes a query to be killed — it is an ordering hint
    and a reporting contract, not a hard timeout.
    """

    priority: int = 0
    deadline_seconds: Optional[float] = None
    #: reporting label; sessions aggregate per label in BatchReport
    label: str = "batch"

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive (or None)")

    # -- the conventional ladder ------------------------------------------

    @classmethod
    def interactive(cls, deadline_seconds: Optional[float] = 1.0) -> "QoS":
        """Latency-sensitive traffic: dashboards, operators at keyboards."""
        return cls(priority=10, deadline_seconds=deadline_seconds, label="interactive")

    @classmethod
    def batch(cls, deadline_seconds: Optional[float] = None) -> "QoS":
        """The default class: throughput-oriented, no latency promise."""
        return cls(priority=0, deadline_seconds=deadline_seconds, label="batch")

    @classmethod
    def background(cls) -> "QoS":
        """Scavenger class: runs in the gaps, first to be preempted."""
        return cls(priority=-10, deadline_seconds=None, label="background")


@dataclass(frozen=True)
class ElasticPolicy:
    """Knobs of the elastic degree-of-parallelism controller.

    At every phase boundary of a running query the scheduler samples the
    shared resources' utilization over the most recent closed window of
    ``window_seconds`` and re-plans the query's *remaining* waves:

    * socket DRAM utilization above ``target_utilization`` means the
      query's cores are contended — its CPU worker set is halved (never
      below ``min_dop``), releasing the compute delta back to the
      admission budget so co-resident queries stop starving;
    * utilization below ``grow_below * target_utilization`` means the
      server is under-utilized — the worker set is doubled (never above
      ``max_dop``, the server's core count, or the budget's remaining
      whole cores).

    ``target_utilization`` may exceed 1.0; combined with ``grow_below``
    this lets tests force deterministic always-shrink
    (``target_utilization=0`` is rejected; use a tiny epsilon) or
    always-grow (``target_utilization`` large) behaviour through pure
    threshold comparisons rather than a mocking seam.
    """

    min_dop: int = 1
    max_dop: Optional[int] = None
    target_utilization: float = 0.85
    #: grow when utilization is below this fraction of the target
    grow_below: float = 0.5
    #: minimum width of one utilization sampling window
    window_seconds: float = 2e-3

    def __post_init__(self) -> None:
        if self.min_dop < 1:
            raise ValueError("min_dop must be >= 1")
        if self.max_dop is not None and self.max_dop < self.min_dop:
            raise ValueError("max_dop must be >= min_dop (or None)")
        if self.target_utilization <= 0:
            raise ValueError("target_utilization must be positive")
        if not 0.0 <= self.grow_below <= 1.0:
            raise ValueError("grow_below must be in [0, 1]")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")

    def derive(self, **overrides: Any) -> "ElasticPolicy":
        return replace(self, **overrides)


@dataclass(frozen=True)
class CachePolicy:
    """Knobs of the compiled-pipeline cache (one per engine).

    ``eviction`` selects the policy the per-server (L1) cache evicts
    with once ``capacity`` is exceeded:

    * ``"lru"`` — plain recency, the original behaviour and the default;
    * ``"cost_aware"`` — GDSF-style: score =
      aging floor + cost x (hits + 1) / size, where the compile
      cost is the per-device estimate the scheduler actually charges on
      misses (:meth:`~repro.hardware.costmodel.CostModel.compile_demand`
      — GPU pipelines ~5–10x CPU), so expensive GPU pipelines outlive
      bursts of cheap CPU shapes.

    Cross-server sharing is orthogonal: attach engines to one
    :class:`~repro.jit.cache.SharedCacheDirectory` (L2) via
    ``Proteus(shared_cache=...)``; the directory carries its own
    capacity and eviction policy (cost-aware by default).
    """

    capacity: int = 128
    eviction: str = "lru"

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be positive")
        if self.eviction not in EVICTION_RULES:
            raise ValueError(
                f"unknown eviction policy {self.eviction!r}; expected one "
                f"of {sorted(EVICTION_RULES)}"
            )


@dataclass(frozen=True)
class ExecutionConfig:
    """Degrees of parallelism and device selection for one query run."""

    cpu_workers: int = 0
    gpu_ids: tuple[int, ...] = ()
    #: run without HetExchange operators (single device, DOP=1)
    bare: bool = False
    #: tuples per staging block (the block granularity of data flow)
    block_tuples: int = 1 << 20
    #: staging blocks the mem-move keeps in flight ahead of each
    #: consumer instance (credit-based; 1 = transfer/compute overlap OFF,
    #: the DMA sits on the consumer's critical path)
    prefetch_depth: int = DEFAULT_PREFETCH_DEPTH

    def __post_init__(self) -> None:
        if self.cpu_workers < 0:
            raise ValueError("cpu_workers must be >= 0")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        for gpu_id in self.gpu_ids:
            if self.gpu_ids.count(gpu_id) > 1:
                raise ValueError(f"gpu id {gpu_id} is listed more than once")
        if self.cpu_workers == 0 and not self.gpu_ids:
            raise ValueError("configuration selects no compute units")
        if self.bare:
            units = self.cpu_workers + len(self.gpu_ids)
            if units != 1:
                raise ValueError(
                    "bare (non-HetExchange) mode supports exactly one compute "
                    f"unit; got {self.cpu_workers} CPUs + {len(self.gpu_ids)} GPUs"
                )
        if self.block_tuples <= 0:
            raise ValueError("block_tuples must be positive")

    # -- constructors --------------------------------------------------------

    @classmethod
    def cpu_only(cls, workers: int, **kw: Any) -> "ExecutionConfig":
        return cls(cpu_workers=workers, gpu_ids=(), **kw)

    @classmethod
    def gpu_only(cls, gpu_ids: Sequence[int], **kw: Any) -> "ExecutionConfig":
        return cls(cpu_workers=0, gpu_ids=tuple(gpu_ids), **kw)

    @classmethod
    def hybrid(
        cls, workers: int, gpu_ids: Sequence[int], **kw: Any
    ) -> "ExecutionConfig":
        return cls(cpu_workers=workers, gpu_ids=tuple(gpu_ids), **kw)

    @classmethod
    def bare_cpu(cls, **kw: Any) -> "ExecutionConfig":
        return cls(cpu_workers=1, bare=True, **kw)

    @classmethod
    def bare_gpu(cls, gpu_id: int = 0, **kw: Any) -> "ExecutionConfig":
        return cls(cpu_workers=0, gpu_ids=(gpu_id,), bare=True, **kw)

    # -- helpers ----------------------------------------------------------------

    def derive(self, **overrides: Any) -> "ExecutionConfig":
        """A copy with selected fields replaced (re-validates invariants)."""
        return replace(self, **overrides)

    @property
    def uses_cpu(self) -> bool:
        return self.cpu_workers > 0

    @property
    def uses_gpu(self) -> bool:
        return bool(self.gpu_ids)

    @property
    def is_hybrid(self) -> bool:
        return self.uses_cpu and self.uses_gpu

    @property
    def devices(self) -> list[DeviceType]:
        out: list[DeviceType] = []
        if self.uses_cpu:
            out.append(DeviceType.CPU)
        if self.uses_gpu:
            out.append(DeviceType.GPU)
        return out

    def describe(self) -> str:
        parts: list[str] = []
        if self.uses_cpu:
            parts.append(f"{self.cpu_workers} CPU worker(s)")
        if self.uses_gpu:
            parts.append(f"GPU(s) {list(self.gpu_ids)}")
        tag = " [bare]" if self.bare else ""
        return " + ".join(parts) + tag
