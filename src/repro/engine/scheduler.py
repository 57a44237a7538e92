"""Concurrent multi-query serving: sessions, admission control, scheduling.

The paper executes one query at a time on the heterogeneous server; a
production deployment serves a *stream* of queries against shared sockets,
GPUs and PCIe links.  This module adds that serving layer on top of the
re-entrant executor:

* a :class:`QuerySession` tracks one submitted query through its life
  cycle (table below) and records queueing delay, service time and
  end-to-end latency in simulated time;
* an :class:`EngineServer` owns one shared engine (simulator, server,
  catalog, block managers, compiled-pipeline cache) and accepts a stream
  of logical plans.  Admitted queries' phase networks interleave on the
  one simulator — every router, worker and DMA of every in-flight query
  contends for the same DRAM/HBM/PCIe bandwidth resources, which is
  exactly how concurrent queries interfere on the real machine;
* admission control charges each query's cost-model-estimated demand
  (:meth:`~repro.hardware.costmodel.CostModel.admission_demand`) against a
  shared :class:`ResourceBudget` before letting it run.  The default
  ``admission="sla"`` policy orders the queue by **priority class, then
  earliest deadline** (:class:`~repro.engine.config.QoS`), and lets a
  small query *backfill* past a blocked head when its demand fits the
  remaining budget; ``admission="fifo"`` restores the strict
  head-of-line ordering of the original serving layer (useful as the
  tail-latency baseline).  A query that could never fit even on an idle
  server is rejected at submission;
* **phase-boundary preemption**: when a higher-priority query is blocked,
  the scheduler asks a running lower-priority victim to yield at its next
  phase boundary (:meth:`~repro.engine.executor.Executor.execute_process`
  runs the scheduler's one ``boundary`` hook, ``_at_boundary``, between
  dependency waves).  A paused query releases its
  *compute* budget (CPU cores, GPU units, PCIe stream window) back to the
  shared :class:`ResourceBudget`; its *memory* dimensions stay charged,
  because the operator state built so far (hash tables) physically
  remains resident in the suspended generator — releasing them would let
  admission overcommit device memory and fail queries at runtime.  The
  victim is resumed later through the same priority queue.  A query in
  its final phase has no remaining checkpoint, so preempting it is a
  no-op (the scheduler never even asks: it consults
  :meth:`~repro.engine.executor.Executor.checkpoints_remaining`);
* **elastic degree of parallelism**: with ``elastic=True`` the server
  revisits each running query's CPU worker set at every phase boundary
  (the same checkpoints preemption uses).  A sliding-window utilization
  sample over the simulator's shared resources
  (:attr:`~repro.hardware.resources.FifoResource.busy_time` /
  :attr:`~repro.hardware.resources.BandwidthResource.busy_time`, both of
  which include the open in-flight interval) drives the decision: a
  query whose sockets are contended is *shrunk* for its remaining waves
  — the freed cores go back to the admission budget, so starved
  co-residents get in — and a query on an under-utilized server *grows*,
  bounded by :class:`~repro.engine.config.ElasticPolicy`'s
  ``[min_dop, max_dop]``, the server's core count and the budget's
  remaining whole cores.  Only the compute delta moves through the
  budget; the memory dimensions stay charged (the operator state and
  staging estimate from admission remain resident).  Results are
  unaffected: the resized stages share the original pipeline templates
  (:meth:`~repro.algebra.physical.Stage.with_dop`), and SSB aggregates
  are exact in float64, so elastic runs stay byte-identical to the
  reference executor;
* **open-loop arrivals**: :meth:`EngineServer.spawn_open_loop` is a
  Poisson arrival generator (seeded, deterministic) that submits without
  waiting for completions, the standard way to drive a server past
  saturation.  Overload behaviour is explicit: with a bounded admission
  queue (``max_queue_depth``) excess arrivals are **shed** at submission
  (status ``shed``, reported per class) instead of growing the queue
  without bound.  Closed-loop clients (:meth:`EngineServer.spawn_client`)
  remain for think-time workloads;
* repeated query shapes hit the executor's shared
  :class:`~repro.jit.cache.PipelineCache`; a cache miss pays a simulated
  per-device compilation latency
  (:meth:`~repro.hardware.costmodel.CostModel.compile_demand`: GPU
  pipelines ~5–10x the CPU base
  :data:`~repro.hardware.costmodel.DEFAULT_COMPILE_SECONDS`, longer
  operator chains proportionally more), a hit — local or served out of
  an attached cross-server
  :class:`~repro.jit.cache.SharedCacheDirectory` — pays nothing, so a
  warmed server (or a fleet-mate of one) visibly serves repeated SSB
  queries faster.  The same per-device estimate prices entries for the
  cache's ``cost_aware`` eviction policy, so what eviction protects is
  exactly what a miss would charge.

Session life cycle.  ``status`` is assigned in one place
(``EngineServer._move``, which also keeps the queue the session sits in
and its pause span in step), the budget is charged and refunded through
one chain (:meth:`ResourceBudget.quota`: the server budget plus the
tenant's slice, one call), and one method makes a session terminal
(``EngineServer._finish``):

===========  ====================  ==========================================
status       sits in               charged to its budget (``held_demand``)
===========  ====================  ==========================================
``queued``   ``_pending``          nothing
``running``  ``_active_sessions``  the full demand (elastic resizes move the
                                   CPU-core delta)
``paused``   ``_paused``           the memory share — the operator state
                                   built so far stays resident
terminal     nowhere               nothing (``done`` / ``failed`` / ``shed``)
===========  ====================  ==========================================

=========================  ========================  ========================
transition                 performed by              budget
=========================  ========================  ========================
(new) -> ``queued``        ``submit``                —
(new) -> ``shed``          ``_shed`` -> ``_finish``  —
``queued`` -> ``running``  ``_activate``             charge the demand
``running`` -> ``paused``  ``_at_boundary``          refund the compute share
``paused`` -> ``running``  ``_activate``             charge the compute share
``running`` -> ``queued``  ``_requeue`` (a retry)    refund everything held
any live -> terminal       ``_finish``               refund everything held
=========================  ========================  ========================

``_activate`` is the one way into ``running``: it starts the driver of
every attempt — the first admission and each retry's re-admission
alike — and resumes a paused one.  A retryable failure ends its
attempt's driver after ``_requeue``; the session then waits in the
queue like any other.

``_finish`` is reached from the session's driver (done, or a failure
that is not retried), from :meth:`EngineServer.cancel` for a session
with no live driver (queued, first time or after a retry), from
``_shed`` at the submission edge, and from stall cleanup at the end of a
drive.

:meth:`EngineServer.run` drives the whole batch to completion and returns
a :class:`BatchReport` with per-query latencies, aggregate throughput,
cache statistics, and per-class tail latency percentiles (p50/p95/p99),
deadline-hit rates, preemption and shed counts.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import Any, Iterator, Optional, Sequence

from ..algebra.logical import Plan
from ..algebra.physical import HetPlan, OpBuildSink
from ..hardware.costmodel import DEFAULT_COMPILE_SECONDS, QueryDemand
from ..hardware.sim import Event
from ..hardware.topology import DeviceType, Server
from ..storage.table import Placement, Table
from .config import ElasticPolicy, ExecutionConfig, QoS
from .faults import FaultInjector, FaultPlan, RetryPolicy, classify_failure
from .proteus import Proteus
from .results import QueryResult
from .tenancy import (
    DeficitRoundRobin,
    Tenant,
    TenantState,
    TokenBucket,
    quota_capacities,
)

__all__ = [
    "EngineServer",
    "QuerySession",
    "ResourceBudget",
    "BatchReport",
    "AdmissionError",
    "SchedulerError",
    "drive_window",
    "Tenant",
]

#: budget dimensions — derived from QueryDemand so the two modules cannot
#: silently diverge when a dimension is added or removed (QueryDemand's
#: scheduling attributes — priority, deadline — are deliberately absent
#: from as_dict and therefore never become budget dimensions)
DIMENSIONS = tuple(QueryDemand().as_dict())
_NOTHING = dict.fromkeys(DIMENSIONS, 0.0)
#: pipeline-cache snapshot counters mirrored into repro_cache_events_total
CACHE_EVENTS = ("hits", "misses", "evictions", "shared_hits")
_PRIORITY = attrgetter("priority")


class AdmissionError(RuntimeError):
    """A query's estimated demand can never fit the server's budget."""


class SchedulerError(RuntimeError):
    """The batch stalled: a session can make no further progress."""


class ResourceBudget:
    """Shared multi-dimensional resource budget for admission control.

    Capacities are upper bounds on the *sum of admitted queries'
    estimated demands*, not a second simulation of the hardware — the
    bandwidth sharing itself happens in the DES resources.  The budget
    keeps conservation counters (total allocated / released per
    dimension) so tests can assert that admission control neither leaks
    nor double-frees; :meth:`release` refuses to go negative (releasing
    a demand that was never allocated is an accounting bug, not a
    recoverable condition).

    A budget may be a :meth:`quota` slice of a parent budget.  Every
    query and state change on a slice covers its whole *chain* (the
    server budget first, then the slice), so a caller charges, refunds
    and tests a session against "its budget" with one call and cannot
    update one ledger without the other.
    """

    def __init__(self, **capacities: float):
        unknown = set(capacities) - set(DIMENSIONS)
        if unknown:
            raise ValueError(f"unknown budget dimensions: {sorted(unknown)}")
        # Unspecified dimensions are UNLIMITED, not zero: a CPU-focused
        # budget like ResourceBudget(cpu_cores=24) must not silently
        # reject every query that has nonzero demand elsewhere.
        self.capacity = {
            dim: float(capacities.get(dim, math.inf)) for dim in DIMENSIONS
        }
        #: the constant part of _tolerance's scale (capacities are fixed)
        self._scale_floor = {
            dim: max(1.0, capacity if math.isfinite(capacity) else 0.0)
            for dim, capacity in self.capacity.items()
        }
        self.in_use = {dim: 0.0 for dim in DIMENSIONS}
        self.peak = {dim: 0.0 for dim in DIMENSIONS}
        self.total_allocated = {dim: 0.0 for dim in DIMENSIONS}
        self.total_released = {dim: 0.0 for dim in DIMENSIONS}
        #: what error messages call this budget
        self.label = "server budget"
        #: outermost budget first, this one last
        self._chain: tuple["ResourceBudget", ...] = (self,)

    @classmethod
    def from_server(
        cls,
        server: Server,
        pcie_window_seconds: float = 4.0,
        gpu_oversubscription: float = 2.0,
    ) -> "ResourceBudget":
        """Derive a budget from the simulated server's spec.

        GPUs are time-shared between kernels, so ``gpu_oversubscription``
        queries may target the same device; the PCIe dimension caps the
        PCIe-bound stream volume admitted at once to what the links can
        move in ``pcie_window_seconds``, and the QPI dimension does the
        same for the cross-socket share of those streams against the
        inter-socket interconnect.
        """
        spec = server.spec
        dram = sum(
            node.capacity_bytes
            for node in server.memory_nodes.values()
            if node.kind is DeviceType.CPU
        )
        hbm = sum(gpu.memory.capacity_bytes for gpu in server.gpus)
        return cls(
            dram_bytes=dram,
            hbm_bytes=hbm,
            pcie_bytes=spec.aggregate_pcie_bandwidth * pcie_window_seconds,
            qpi_bytes=spec.qpi_bandwidth * pcie_window_seconds,
            cpu_cores=len(server.cores),
            gpu_units=len(server.gpus) * gpu_oversubscription,
        )

    def quota(self, label: str, **capacities: float) -> "ResourceBudget":
        """A slice of this budget with its own (tighter) capacities.

        What is charged through the slice is charged to this budget
        too; only charges made *through the slice* count against the
        slice's capacities — the isolation wall between tenants.
        """
        child = ResourceBudget(**capacities)
        child.label = label
        child._chain = (*self._chain, child)
        return child

    # -- queries over the budget ------------------------------------------

    def _tolerance(self, dim: str) -> float:
        # Relative: byte-scale dimensions accumulate float rounding of a
        # few ulps per allocate/release pair, which an absolute epsilon
        # would miss at realistic (1e10+) scales.  Unlimited capacities
        # are excluded from the scale, or the tolerance would be inf.
        return 1e-9 * max(self._scale_floor[dim], self.total_allocated[dim])

    def _has_room(self, d: dict[str, float], freed: dict[str, float]) -> bool:
        """This level alone: does ``d`` fit once ``freed`` is given back?"""
        in_use, capacity = self.in_use, self.capacity
        floor, allocated = self._scale_floor, self.total_allocated
        for dim in DIMENSIONS:
            # _tolerance(dim), inlined: backfill asks this of every waiter
            tolerance = 1e-9 * max(floor[dim], allocated[dim])
            if not in_use[dim] - freed[dim] + d[dim] <= capacity[dim] + tolerance:
                return False
        return True

    def blocked_at(self, demand: QueryDemand) -> Optional["ResourceBudget"]:
        """The innermost budget of the chain with no room for ``demand``
        right now, or None when it fits everywhere.

        A session blocked at its own quota slice can only be helped by
        releases made through that slice; one blocked at the server
        budget by anybody's.
        """
        d = demand.as_dict()
        for level in reversed(self._chain):
            if not level._has_room(d, _NOTHING):
                return level
        return None

    def fits(self, demand: QueryDemand) -> bool:
        return self.blocked_at(demand) is None

    def fits_with_release(
        self,
        demand: QueryDemand,
        released: Sequence[tuple["ResourceBudget", QueryDemand]] = (),
    ) -> bool:
        """Would ``demand`` fit if ``released`` were given back first?

        ``released`` pairs each demand with the budget it is charged
        through: it frees room at the levels of *that* budget's chain
        only, so pausing another tenant's query never counts towards a
        waiter blocked on its own quota (that would punch through the
        isolation wall).  The preemption planner uses this to request
        only as many victims as actually unblock the waiting query
        (pausing more would churn phase boundaries for nothing).
        """
        d = demand.as_dict()
        given_back = [(through._chain, other.as_dict()) for through, other in released]
        for level in self._chain:
            freed = dict(_NOTHING)
            for chain, od in given_back:
                if level in chain:
                    for dim in DIMENSIONS:
                        freed[dim] += od[dim]
            if not level._has_room(d, freed):
                return False
        return True

    def too_small_for(self, demand: QueryDemand) -> Optional["ResourceBudget"]:
        """The outermost budget of the chain whose *capacity* ``demand``
        exceeds — it could never run, even on an idle server — or None."""
        d = demand.as_dict()
        for level in self._chain:
            # room once everything in use is given back == raw capacity
            if not level._has_room(d, level.in_use):
                return level
        return None

    def headroom(self) -> dict[str, float]:
        """Per dimension, the room left at the tightest level of the chain."""
        return {
            dim: min(level.capacity[dim] - level.in_use[dim] for level in self._chain)
            for dim in DIMENSIONS
        }

    # -- state changes -----------------------------------------------------

    def allocate(self, demand: QueryDemand) -> None:
        d = demand.as_dict()
        for level in self._chain:
            for dim in DIMENSIONS:
                level.in_use[dim] += d[dim]
                level.total_allocated[dim] += d[dim]
                level.peak[dim] = max(level.peak[dim], level.in_use[dim])

    def release(self, demand: QueryDemand) -> None:
        """Return an allocated demand; raises on over-release.

        Conservation is checked *before* any dimension is mutated, so a
        rejected release leaves that budget untouched (no partial
        accounting to unwind).
        """
        d = demand.as_dict()
        for level in self._chain:
            for dim in DIMENSIONS:
                if d[dim] > level.in_use[dim] + level._tolerance(dim):
                    raise ValueError(
                        f"over-release on {dim}: releasing {d[dim]!r} with only "
                        f"{level.in_use[dim]!r} in use (was this demand ever "
                        f"allocated?)"
                    )
            for dim in DIMENSIONS:
                level.in_use[dim] -= d[dim]
                level.total_released[dim] += d[dim]
                # snap float residue so an "empty" budget is exactly empty
                if abs(level.in_use[dim]) <= level._tolerance(dim):
                    level.in_use[dim] = 0.0

    def assert_conserved(self) -> None:
        """Every allocated unit was released and nothing is outstanding
        (this budget's own ledger; a slice's parent is checked on its own)."""
        for dim in DIMENSIONS:
            tolerance = self._tolerance(dim)
            if abs(self.in_use[dim]) > tolerance:
                raise AssertionError(
                    f"budget dimension {dim} not drained: {self.in_use[dim]!r}"
                )
            if abs(self.total_allocated[dim] - self.total_released[dim]) > tolerance:
                raise AssertionError(
                    f"budget dimension {dim} not conserved: allocated "
                    f"{self.total_allocated[dim]!r} != released "
                    f"{self.total_released[dim]!r}"
                )


class _UtilizationMonitor:
    """Sliding-window utilization sampler over the shared DES resources.

    Two families of per-resource figures, differenced across windows at
    least ``window_seconds`` wide:

    * **busy fraction** — share of the window during which the resource
      served at least one job.  Cumulative busy times include the open
      in-flight interval (see :attr:`FifoResource.busy_time` and
      :attr:`BandwidthResource.busy_time`).  The natural measure for
      exclusive servers (GPU compute engines).
    * **rate utilization** (``rate:`` keys, bandwidth resources only) —
      fraction of the resource's *capacity* actually consumed
      (``total_work_served`` delta over ``capacity * window``).  A
      processor-sharing bus is "busy" the instant one rate-capped core
      streams from it, so the busy fraction saturates at 1 under any
      continuous load; the rate figure is the one that says whether
      additional workers could still extract bandwidth.

    A sample taken inside the current window returns the previous
    *closed* window's figures, so co-scheduled queries probing at nearby
    phase boundaries act on one consistent picture instead of
    vanishingly small windows.
    """

    def __init__(self, sim, server: Server, window_seconds: float):
        self.sim = sim
        self.server = server
        self.window_seconds = window_seconds
        self._window_start = sim.now
        self._busy_at_start = self._cumulative_busy()
        self._served_at_start = self._cumulative_served()
        self._closed: dict[str, float] = {}

    def _bandwidth_resources(self):
        for node_id, node in self.server.memory_nodes.items():
            prefix = "dram" if node.kind is DeviceType.CPU else "hbm"
            yield f"{prefix}:{node_id}", node.bandwidth
        for gpu in self.server.gpus:
            yield f"pcie:{gpu.gpu_id}", gpu.link.bandwidth

    def _cumulative_busy(self) -> dict[str, float]:
        busy = {key: bw.busy_time for key, bw in self._bandwidth_resources()}
        for gpu in self.server.gpus:
            busy[f"gpu:{gpu.gpu_id}"] = gpu.compute.busy_time
        return busy

    def _cumulative_served(self) -> dict[str, tuple[float, float]]:
        return {
            key: (bw.total_work_served, bw.capacity)
            for key, bw in self._bandwidth_resources()
        }

    def sample(self) -> dict[str, float]:
        """Per-resource utilization of the most recent closed window.

        Empty until the first window closes (the controller then makes
        no resize decision — better idle than acting on no signal).
        """
        now = self.sim.now
        elapsed = now - self._window_start
        if elapsed >= self.window_seconds:
            busy = self._cumulative_busy()
            served = self._cumulative_served()
            closed = {
                key: min(
                    1.0,
                    max(0.0, (busy[key] - self._busy_at_start.get(key, 0.0)) / elapsed),
                )
                for key in busy
            }
            for key, (work, capacity) in served.items():
                previous = self._served_at_start.get(key, (0.0, capacity))[0]
                closed[f"rate:{key}"] = min(
                    1.0, max(0.0, (work - previous) / (capacity * elapsed))
                )
            self._closed = closed
            self._busy_at_start = busy
            self._served_at_start = served
            self._window_start = now
        return dict(self._closed)

    def dram_utilization(self) -> Optional[float]:
        """Most-contended socket's DRAM *rate* utilization; None before
        the first window closes."""
        sample = self.sample()
        if not sample:
            return None
        return max(
            (value for key, value in sample.items() if key.startswith("rate:dram:")),
            default=0.0,
        )


@dataclass
class QuerySession:
    """One submitted query's life cycle on the shared server."""

    query_id: int
    name: str
    plan: Plan
    config: ExecutionConfig
    het: HetPlan
    demand: QueryDemand
    #: 'queued' -> 'running' [-> 'paused' -> 'running'] -> 'done'|'failed';
    #: 'shed' is terminal-at-submission (bounded queue overflowed, or the
    #: tenant's token bucket ran dry).  Assigned by the server's ``_move``
    #: only (terminal statuses through ``_finish``) — see the module
    #: docstring's transition table
    status: str = "queued"
    qos: QoS = field(default_factory=QoS)
    #: owning tenant's name (None = untenanted / implicit default tenant)
    tenant: Optional[str] = None
    #: why a shed session was shed: 'queue_full' | 'rate_limited'
    shed_reason: Optional[str] = None
    #: for rate-limited sheds: simulated seconds until the tenant's
    #: bucket next holds a whole token (the client's back-off hint)
    retry_after: Optional[float] = None
    #: times a lower-ranked session was admitted past this one while it
    #: sat blocked at the head (drives the anti-starvation barrier)
    bypassed: int = 0
    submit_time: float = 0.0
    admit_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: absolute simulated-time deadline (submit_time + qos.deadline_seconds)
    deadline: Optional[float] = None
    result: Optional[QueryResult] = None
    error: Optional[BaseException] = None
    #: pipelines freshly compiled (cache misses) for this session
    compiled_fresh: int = 0
    #: simulated compile latency actually charged for those misses
    #: (per-device: GPU pipelines cost ~5-10x the CPU base)
    compile_seconds_charged: float = 0.0
    #: shape executed for the *remaining* waves, ``config`` at first:
    #: elastic resizes and retries update this; ``config`` keeps the
    #: shape the query was submitted with
    current_config: ExecutionConfig = field(init=False)
    #: times the elastic controller resized this session's worker set
    resizes: int = 0
    #: (simulated time, cpu dop): the admitted shape first, then one
    #: entry per elastic resize
    dop_trajectory: list[tuple[float, int]] = field(default_factory=list)
    #: times this session was paused at a phase boundary
    preemptions: int = 0
    #: simulated seconds spent paused at preemption checkpoints
    suspended_seconds: float = 0.0
    #: when the current pause began (None while not paused)
    pause_started: Optional[float] = None
    #: scheduler asked the session to yield at its next phase boundary
    preempt_requested: bool = False
    #: exactly what is currently charged to the budget: the full demand
    #: while running, only the memory share while paused, None when the
    #: session holds nothing
    held_demand: Optional[QueryDemand] = None
    #: triggered by the scheduler to resume a paused session
    resume_event: Optional[Event] = None
    #: triggered when the session reaches a terminal state
    done: Optional[Event] = None
    #: execution attempts so far (1 = first attempt, no retry yet)
    attempts: int = 1
    #: typed failure class of each attempt that was retried, in order
    retried_classes: list[str] = field(default_factory=list)
    #: a retry dropped this session to a device-reduced placement
    fell_back: bool = False
    #: typed classification of the terminal failure (None unless failed)
    error_class: Optional[str] = None

    def __post_init__(self) -> None:
        self.current_config = self.config

    @property
    def tag(self) -> str:
        return f"q{self.query_id}"

    @property
    def priority(self) -> int:
        # the demand is the single scheduling source of truth (the QoS
        # merely seeded it at submission); qos keeps the reporting label
        return self.demand.priority

    @property
    def label(self) -> str:
        return self.qos.label

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed", "shed")

    @property
    def retries(self) -> int:
        """Completed retry round-trips (attempts after the first)."""
        return len(self.retried_classes)

    def failure_detail(self) -> str:
        """Where and why the session failed, from the exception chain.

        Surfaces the failed process (or executing phase) recorded on a
        chained :class:`~repro.engine.executor.QueryError` plus the root
        cause — ``session.error`` keeps the full chained exception; this
        is the one-line rendering report summaries use.
        """
        error = self.error
        if error is None:
            return ""
        process: Optional[str] = None
        phase: Optional[str] = None
        root: BaseException = error
        seen: set[int] = set()
        exc: Optional[BaseException] = error
        while exc is not None and id(exc) not in seen:
            seen.add(id(exc))
            if process is None:
                process = getattr(exc, "process", None)
            if phase is None:
                phase = getattr(exc, "phase", None)
            root = exc
            exc = exc.__cause__ or exc.__context__
        parts = []
        if process:
            parts.append(f"process {process}")
        elif phase:
            parts.append(f"phase {phase}")
        parts.append(f"{type(root).__name__}: {root}")
        return " <- ".join(parts)

    @property
    def queue_seconds(self) -> Optional[float]:
        if self.admit_time is None:
            return None
        return self.admit_time - self.submit_time

    @property
    def service_seconds(self) -> Optional[float]:
        """Active service time: admission to finish, minus the spans the
        session sat paused at preemption checkpoints."""
        if self.finish_time is None or self.admit_time is None:
            return None
        return self.finish_time - self.admit_time - self.suspended_seconds

    @property
    def latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the SLO was met; None without a deadline or result.

        A shed or failed session with a deadline counts as a miss: the
        SLO was promised and the answer never produced.
        """
        if self.deadline is None:
            return None
        if self.status in ("shed", "failed"):
            return False
        if self.status != "done":
            return None
        return self.finish_time <= self.deadline + 1e-12


def _percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _done_latency_tails(
    sessions: Sequence[QuerySession], percentiles: Sequence[float] = (50, 95, 99)
) -> Optional[dict[str, float]]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` over the *completed*
    sessions' latencies, or None when none completed."""
    latencies = sorted(s.latency for s in sessions if s.status == "done")
    if not latencies:
        return None
    return {f"p{pct:g}": _percentile(latencies, pct) for pct in percentiles}


def drive_window(items: Sequence, reported: set[int]) -> tuple[list, float]:
    """What one drive reports: the ``items`` (sessions, fleet queries)
    that finished and were not reported by an earlier drive — now marked
    reported — and their makespan, first submission to last finish."""
    finished = [
        item for item in items
        if item.finished and item.query_id not in reported
    ]
    reported.update(item.query_id for item in finished)
    if not finished:
        return finished, 0.0
    return finished, (
        max(item.finish_time for item in finished)
        - min(item.submit_time for item in finished)
    )


def _compute_share(demand: QueryDemand) -> QueryDemand:
    """What a *paused* query gives back: compute units and the PCIe
    stream window.  Memory dimensions are excluded — see
    :func:`_memory_share`."""
    return replace(demand, dram_bytes=0.0, hbm_bytes=0.0)


def _memory_share(demand: QueryDemand) -> QueryDemand:
    """What a paused query keeps charged: the DRAM/HBM its operator
    state (hash tables built in completed phases) still physically
    occupies.  Releasing it would let admission place a query whose
    runtime allocation then fails with out-of-device-memory.  The
    stream windows (PCIe and its cross-socket QPI share) travel with
    the compute share — a paused query moves no data."""
    return replace(demand, pcie_bytes=0.0, qpi_bytes=0.0, cpu_cores=0, gpu_units=0)


@dataclass
class BatchReport:
    """Aggregate outcome of one :meth:`EngineServer.run` drive.

    ``sessions`` (and the makespan/throughput/latency aggregates over
    them) cover only the sessions that reached a terminal state during
    *this* drive; ``cache`` is the pipeline cache's lifetime snapshot
    (compute deltas across reports for per-batch cache behaviour).
    """

    sessions: list[QuerySession]
    makespan: float
    #: completed queries per simulated second over the makespan
    throughput_qps: float
    #: per-tier pipeline-cache snapshot: the L1 counters flat, plus a
    #: nested ``"shared"`` dict when a SharedCacheDirectory is attached
    cache: dict = field(default_factory=dict)
    #: fired-fault counters + event log from the server's FaultInjector
    #: (empty when no FaultPlan is armed)
    faults: dict = field(default_factory=dict)
    #: per-tenant rollup of this drive (counts, tail latencies, quota
    #: budget peaks for capped tenants), keyed by tenant label
    tenants: dict = field(default_factory=dict)
    #: machine-readable metrics snapshot taken at the end of the drive
    #: (:meth:`~repro.engine.metrics.MetricsRegistry.snapshot`)
    metrics: dict = field(default_factory=dict)

    @property
    def completed(self) -> list[QuerySession]:
        return [s for s in self.sessions if s.status == "done"]

    @property
    def failed(self) -> list[QuerySession]:
        return [s for s in self.sessions if s.status == "failed"]

    @property
    def shed(self) -> list[QuerySession]:
        return [s for s in self.sessions if s.status == "shed"]

    @property
    def preemptions(self) -> int:
        return sum(s.preemptions for s in self.sessions)

    @property
    def resizes(self) -> int:
        """Elastic-dop resizes across all sessions in this drive."""
        return sum(s.resizes for s in self.sessions)

    @property
    def retries(self) -> int:
        """Retry round-trips across all sessions in this drive."""
        return sum(s.retries for s in self.sessions)

    @property
    def fallbacks(self) -> int:
        """Sessions a retry dropped to a device-reduced placement."""
        return sum(1 for s in self.sessions if s.fell_back)

    def retries_by_class(self) -> dict[str, int]:
        """Retry counts per typed failure class (device_lost, ...)."""
        counts: dict[str, int] = {}
        for session in self.sessions:
            for label in session.retried_classes:
                counts[label] = counts.get(label, 0) + 1
        return counts

    def failures_by_class(self) -> dict[str, int]:
        """Terminal-failure counts per typed class."""
        counts: dict[str, int] = {}
        for session in self.failed:
            label = session.error_class or "fatal"
            counts[label] = counts.get(label, 0) + 1
        return counts

    @property
    def recompile_seconds(self) -> float:
        """Total simulated compile latency this drive's sessions paid on
        cache misses — the figure cost-aware eviction minimises."""
        total = 0.0  # a left fold: builtin float sum compensates on 3.12+
        for session in self.sessions:
            total += session.compile_seconds_charged
        return total

    def dop_trajectories(self) -> dict[str, list[int]]:
        """Per-session CPU dop trajectory, keyed by session tag.

        The first entry is the dop the query was admitted with; each
        further entry is one elastic resize.  Sessions the controller
        never tracked (elastic off, gpu-only, shed before admission)
        are absent.
        """
        return {
            s.tag: [dop for _, dop in s.dop_trajectory]
            for s in self.sessions
            if s.dop_trajectory
        }

    @property
    def latencies(self) -> dict[str, float]:
        """Latency per served session, keyed by the unique session tag
        (names are user-supplied and may repeat across resubmissions).
        Shed sessions are excluded — their zero "latency" is a refusal,
        not a measurement."""
        return {
            s.tag: s.latency
            for s in self.sessions
            if s.latency is not None and s.status != "shed"
        }

    @property
    def mean_latency(self) -> float:
        values = list(self.latencies.values())
        return sum(values) / len(values) if values else 0.0

    def by_class(self) -> dict[str, list[QuerySession]]:
        """Sessions grouped by their QoS label, in priority order."""
        groups: dict[str, list[QuerySession]] = {}
        for session in sorted(self.sessions, key=lambda s: (-s.priority, s.query_id)):
            groups.setdefault(session.label, []).append(session)
        return groups

    def latency_percentiles(
        self, percentiles: Sequence[float] = (50, 95, 99)
    ) -> dict[str, dict[str, float]]:
        """Per-class tail latency over *completed* sessions.

        Returns ``{label: {"p50": ..., "p95": ..., "p99": ...}}`` using
        nearest-rank percentiles (exact on the small, deterministic
        sample sizes a simulated batch produces).
        """
        tails = {
            label: _done_latency_tails(group, percentiles)
            for label, group in self.by_class().items()
        }
        return {label: tail for label, tail in tails.items() if tail is not None}

    def deadline_hit_rates(self) -> dict[str, float]:
        """Per-class fraction of deadline-carrying sessions that met
        their SLO (shed and failed sessions with deadlines count as
        misses — the answer was promised and never produced)."""
        out: dict[str, float] = {}
        for label, group in self.by_class().items():
            judged = [s for s in group if s.deadline_met is not None]
            if not judged:
                continue
            out[label] = sum(1 for s in judged if s.deadline_met) / len(judged)
        return out

    def summary(self) -> str:
        lines = [
            f"{len(self.completed)} done, {len(self.failed)} failed, "
            f"{len(self.shed)} shed in {self.makespan:.4f}s simulated "
            f"({self.throughput_qps:.2f} queries/s, "
            f"{self.preemptions} preemption(s), {self.resizes} resize(s))",
        ]
        if self.retries or self.fallbacks:
            by_class = ", ".join(
                f"{label} x{count}"
                for label, count in sorted(self.retries_by_class().items())
            )
            lines.append(
                f"retries: {self.retries}"
                + (f" ({by_class})" if by_class else "")
                + f"; {self.fallbacks} session(s) fell back to a "
                f"device-reduced placement"
            )
        if self.faults:
            lines.append(
                f"faults injected: {self.faults.get('device_losses', 0)} "
                f"device loss(es), {self.faults.get('stragglers', 0)} "
                f"straggler(s), {self.faults.get('spurious_aborts', 0)} "
                f"spurious abort(s)"
            )
        if self.cache:
            line = (
                f"pipeline cache: {self.cache.get('hits', 0)} hits / "
                f"{self.cache.get('misses', 0)} misses "
                f"(hit rate {self.cache.get('hit_rate', 0.0):.1%}, "
                f"{self.cache.get('size', 0)}/{self.cache.get('capacity', 0)} "
                f"resident)"
            )
            if self.cache.get("shared_hits"):
                line += f", {self.cache['shared_hits']} shared hit(s)"
            lines.append(line)
            if self.recompile_seconds:
                lines.append(
                    f"recompile cost: {self.recompile_seconds:.4f}s simulated "
                    f"over {sum(s.compiled_fresh for s in self.sessions)} "
                    f"fresh pipeline(s)"
                )
            shared = self.cache.get("shared")
            if shared:
                lines.append(
                    f"shared directory: {shared.get('hits', 0)} hits "
                    f"({shared.get('cross_server_hits', 0)} cross-server) / "
                    f"{shared.get('misses', 0)} misses, "
                    f"{shared.get('size', 0)}/{shared.get('capacity', 0)} "
                    f"resident"
                )
        if len(self.tenants) > 1 or (self.tenants and "default" not in self.tenants):
            for label, record in sorted(self.tenants.items()):
                parts = [
                    f"tenant {label:12s}",
                    f"w={record['weight']:g}",
                    f"done={record['done']}",
                    f"shed={record['shed']}",
                ]
                if record.get("retry_after") is not None:
                    # the rate limiter's back-off hint: what a client of
                    # this tenant should sleep before resubmitting
                    parts.append(f"retry-after<={record['retry_after']:.4f}s")
                tail = record.get("latency")
                if tail is not None:
                    parts.append(f"p99={tail['p99']:.4f}s")
                if "budget_peak" in record:
                    peak = ", ".join(
                        f"{dim}={value:g}/{record['budget_capacity'][dim]:g}"
                        for dim, value in record["budget_peak"].items()
                    )
                    parts.append(f"quota-peak[{peak}]")
                lines.append("  " + " ".join(parts))
        tails = self.latency_percentiles()
        hit_rates = self.deadline_hit_rates()
        for label, group in self.by_class().items():
            parts = [f"class {label:12s}"]
            stats = tails.get(label)
            if stats is None:
                # no session of this class completed (all shed/failed):
                # a dash, never a NaN, in the benchmark artifact
                parts.append("p50/p95/p99=-")
            else:
                parts += [f"{key}={value:.4f}s" for key, value in stats.items()]
            if label in hit_rates:
                parts.append(f"deadline-hit={hit_rates[label]:.0%}")
            lines.append("  " + " ".join(parts))
        for session in self.sessions:
            mark = "ok" if session.status == "done" else session.status
            lat = (
                f"{session.latency:.4f}s"
                # a shed session's zero "latency" is a refusal, not a
                # measurement — render the dash
                if session.latency is not None and session.status != "shed"
                else "-"
            )
            extra = f" preempted x{session.preemptions}" if session.preemptions else ""
            if session.resizes:
                path = "->".join(str(dop) for _, dop in session.dop_trajectory)
                extra += f" dop {path}"
            if session.retries:
                extra += f" retried x{session.retries}"
            if session.fell_back:
                extra += " fallback"
            if session.status == "failed":
                detail = session.failure_detail()
                extra += f" [{session.error_class or 'error'}]"
                if detail:
                    extra += f" {detail}"
            lines.append(f"  {session.name:12s} {mark:7s} latency={lat}{extra}")
        return "\n".join(lines)


class EngineServer:
    """A shared Proteus engine serving a concurrent stream of queries.

    Scheduling knobs:

    * ``admission="sla"`` (default): the admission queue is ordered by
      priority class then earliest deadline; small queries backfill past
      a blocked head when their demand fits the remaining budget, and
      (with ``preemption=True``) running lower-priority queries are
      paused at phase boundaries when that unblocks a higher-priority
      arrival.  ``admission="fifo"`` restores strict submission-order
      head-of-line admission (the original serving behaviour).
    * ``backfill_limit``: anti-starvation barrier — after a blocked head
      has been bypassed this many times, backfill below it stops until
      it is admitted, restoring the bounded-delay guarantee that strict
      FIFO gave a large equal-priority query under a sustained stream of
      small ones.  ``None`` disables the barrier (pure backfill).
    * ``max_queue_depth``: bound on the number of *queued* (not yet
      admitted) sessions; submissions beyond it are shed, which is how
      an open-loop arrival stream is kept from growing the queue without
      bound at overload.  ``None`` means unbounded (closed-loop safe).
    * ``elastic``: enable the elastic-dop controller — at every phase
      boundary a running query's CPU worker set may be shrunk (socket
      DRAM contended beyond ``target_utilization``) or grown (server
      under-utilized) for its remaining waves, within
      ``[min_dop, max_dop]`` and the budget's remaining cores.  The
      ``min_dop``/``max_dop``/``target_utilization`` shorthands build an
      :class:`~repro.engine.config.ElasticPolicy`; pass ``elastic_policy``
      instead for the full knob set (mutually exclusive).

    Tenancy knobs: ``tenants=[Tenant("acme", weight=2.0,
    compute_quota=0.5, rate_limit=RateLimit(rate_qps=10))]`` registers
    the tenants sharing the server; submissions then carry
    ``tenant="acme"`` (untenanted traffic reports as the implicit
    ``default`` tenant).  Admission interleaves per-tenant queues by
    **deficit round-robin** under the QoS ladder (priority stays strict
    across tenants; weights arbitrate within a priority band), quota
    fractions cap the slice of the admission budget a tenant's in-flight
    queries may hold — enforced through a per-tenant
    :meth:`ResourceBudget.quota` slice of the server budget, so a
    saturating tenant is capped at its share instead of starving the
    others — and a rate-limited
    tenant's excess submissions are shed at the edge with a
    ``retry_after`` hint.  A waiter blocked on its *own* tenant quota
    never triggers preemption of other tenants' queries.

    Observability: the server attaches its metric families to the
    engine's :class:`~repro.engine.metrics.MetricsRegistry`
    (``engine.metrics``, so two servers over one engine share a
    surface).  Each site calls its family inline with its labels
    (``self._m_shed.inc(tenant=…, reason=…)``); the gauges are sampled
    when the surface is read — by :meth:`metrics_text`, which renders
    the Prometheus text exposition, and by each drive's
    :attr:`BatchReport.metrics` snapshot.  Observation schedules no
    event and changes no simulated state.

    Cache knobs travel with the engine: construct the server with
    ``cache_policy=CachePolicy(capacity, eviction="cost_aware", ...)``
    and/or ``shared_cache=SharedCacheDirectory(...)`` (forwarded to
    :class:`~repro.engine.proteus.Proteus` like any engine kwarg) to
    select eviction and attach the server to a cross-server cache tier.

    Chaos knobs: ``fault_plan=FaultPlan(...)`` arms seeded fault
    injection (device loss, DMA stragglers, spurious aborts) for the
    next drive; ``retry_policy=RetryPolicy(...)`` turns retryable
    failures (:func:`~repro.engine.faults.classify_failure`) into
    bounded re-admissions: the session re-enters the admission queue on
    a placement that excludes dead devices and runs a fresh attempt — a
    query that lost a GPU retries CPU-only and returns byte-identical
    rows.  Without a retry policy every failure is terminal but still
    typed (``session.error_class``).
    """

    def __init__(
        self,
        engine: Optional[Proteus] = None,
        *,
        budget: Optional[ResourceBudget] = None,
        max_concurrent: int = 8,
        compile_seconds: float = DEFAULT_COMPILE_SECONDS,
        admission: str = "sla",
        preemption: bool = True,
        backfill_limit: Optional[int] = 64,
        max_queue_depth: Optional[int] = None,
        elastic: bool = False,
        elastic_policy: Optional[ElasticPolicy] = None,
        min_dop: Optional[int] = None,
        max_dop: Optional[int] = None,
        target_utilization: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tenants: Optional[Sequence[Tenant]] = None,
        **engine_kwargs: Any,
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if admission not in ("sla", "fifo"):
            raise ValueError(f"admission must be 'sla' or 'fifo', got {admission!r}")
        if backfill_limit is not None and backfill_limit < 0:
            raise ValueError("backfill_limit must be >= 0 (or None)")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if elastic_policy is not None and any(
            knob is not None for knob in (min_dop, max_dop, target_utilization)
        ):
            raise ValueError(
                "pass either elastic_policy= or the min_dop/max_dop/"
                "target_utilization shorthands, not both"
            )
        if not elastic and (
            elastic_policy is not None
            or any(knob is not None for knob in (min_dop, max_dop, target_utilization))
        ):
            # knobs without the switch would be silently inert: the
            # caller believes elasticity is active and gets fixed dop
            raise ValueError(
                "elastic_policy/min_dop/max_dop/target_utilization have no "
                "effect without elastic=True"
            )
        if elastic_policy is None:
            overrides: dict[str, Any] = {}
            if min_dop is not None:
                overrides["min_dop"] = min_dop
            if max_dop is not None:
                overrides["max_dop"] = max_dop
            if target_utilization is not None:
                overrides["target_utilization"] = target_utilization
            elastic_policy = ElasticPolicy(**overrides)
        if engine is not None and engine_kwargs:
            raise ValueError(
                f"engine kwargs {sorted(engine_kwargs)} have no effect when "
                f"an existing engine is supplied; configure the Proteus "
                f"instance instead"
            )
        self.engine = engine or Proteus(**engine_kwargs)
        self.sim = self.engine.sim
        self.server = self.engine.server
        self.catalog = self.engine.catalog
        self.executor = self.engine.executor
        self.placer = self.engine.placer
        self.cost = self.engine.cost
        self.budget = budget or ResourceBudget.from_server(self.server)
        self.max_concurrent = max_concurrent
        self.compile_seconds = compile_seconds
        self.admission = admission
        self.preemption = preemption and admission == "sla"
        self.backfill_limit = backfill_limit
        self.max_queue_depth = max_queue_depth
        self.elastic = elastic
        self.elastic_policy = elastic_policy
        self._monitor = _UtilizationMonitor(
            self.sim, self.server, elastic_policy.window_seconds
        )
        self.sessions: list[QuerySession] = []
        #: where a live session sits, keyed by its status, each a query
        #: id -> session map: the admission queue, the preempted sessions
        #: waiting to resume, and the sessions holding their compute
        #: share.  _move alone keeps them in step with status
        self._pending: dict[int, QuerySession] = {}
        self._paused: dict[int, QuerySession] = {}
        self._active_sessions: dict[int, QuerySession] = {}
        self._seats = {
            "queued": self._pending,
            "paused": self._paused,
            "running": self._active_sessions,
        }
        #: the admission order, kept as it changes: per tenant label (in
        #: registration order), its queued + paused sessions sorted by
        #: _rank.  _move inserts and removes; _reshape re-keys
        self._queues: dict[str, list[QuerySession]] = {"default": []}
        self._next_id = 0
        self._reported_ids: set[int] = set()
        self._clients: list = []
        #: report of the most recent drive (also set when run() raises)
        self.last_report: Optional[BatchReport] = None
        self._admission_proc = None
        #: the sleeping admission pump's wake-up (None while it runs)
        self._admission_wakeup: Optional[Event] = None
        #: query id -> (the _query_proc generator, its DES Process) of
        #: the session's latest attempt, set by _activate, dropped by
        #: _finish.  Interrupting the process is how a live session is
        #: aborted or cancelled; closing the generator is how a stalled
        #: one is torn down (through yield-from delegation that runs the
        #: executor's state cleanup)
        self._drivers: dict[int, tuple[Any, Any]] = {}
        self.retry_policy = retry_policy
        #: per-tenant runtime state; the None key is the implicit
        #: "default" tenant untenanted submissions report under
        self.tenant_states: dict[Optional[str], TenantState] = {
            None: TenantState(tenant=Tenant("default"), budget=self.budget)
        }
        for tenant in tenants or ():
            if tenant.name == "default":
                raise ValueError(
                    "tenant name 'default' is reserved for untenanted "
                    "traffic"
                )
            if tenant.name in self.tenant_states:
                raise ValueError(f"duplicate tenant {tenant.name!r}")
            caps = quota_capacities(tenant, self.budget.capacity)
            label = f"tenant {tenant.name!r} quota"
            state = TenantState(
                tenant, self.budget.quota(label, **caps) if caps else self.budget
            )
            if tenant.rate_limit is not None:
                state.bucket = TokenBucket(tenant.rate_limit, now=self.sim.now)
            self.tenant_states[tenant.name] = state
            self._queues[tenant.name] = []
        self._drr = DeficitRoundRobin()
        self._drr_weights = {
            self._tenant_label(key): state.tenant.weight
            for key, state in self.tenant_states.items()
        }
        #: the engine facade's registry, so two servers over one engine
        #: share a surface
        self.metrics = self.engine.metrics
        self._metric_families()
        # the metrics gauges sample their own utilization monitor so a
        # scrape's window closures never perturb the elastic controller's
        self._metrics_monitor = _UtilizationMonitor(
            self.sim, self.server, elastic_policy.window_seconds
        )
        #: armed fault injector, or None when the drive is fault-free
        self.faults: Optional[FaultInjector] = (
            FaultInjector(self.sim, self.server, fault_plan)
            if fault_plan is not None
            else None
        )
        if self.faults is not None:
            self.faults.abort_running = self._abort_victim
            self.executor.fault_injector = self.faults

    @property
    def _running(self) -> int:
        return len(self._active_sessions)

    # -- tenancy -----------------------------------------------------------

    @staticmethod
    def _tenant_label(name: Optional[str]) -> str:
        return name if name is not None else "default"

    def _state_for(self, name: Optional[str]) -> TenantState:
        try:
            return self.tenant_states[name]
        except KeyError:
            raise ValueError(
                f"unknown tenant {name!r}; construct the server with "
                f"tenants=[Tenant({name!r}, ...)]"
            ) from None

    def _budget_of(self, session: QuerySession) -> ResourceBudget:
        """The budget the session is charged through: its tenant's
        quota slice, or the server budget for an uncapped tenant."""
        return self.tenant_states[session.tenant].budget

    # -- metrics -----------------------------------------------------------

    def _metric_families(self) -> None:
        """Create (or re-attach to) every metric family up front, so the
        exposition's schema is stable from the first scrape — families
        exist with zero values before any traffic arrives."""
        registry = self.metrics
        self._m_sessions = registry.counter(
            "repro_sessions_total",
            "Sessions reaching a terminal state",
            labels=("tenant", "qos_class", "status"),
        )
        self._m_latency = registry.histogram(
            "repro_query_latency_seconds",
            "End-to-end simulated latency of completed queries",
            labels=("tenant",),
        )
        self._m_queue_wait = registry.histogram(
            "repro_queue_wait_seconds",
            "Simulated queueing delay from submission to admission",
            labels=("tenant",),
        )
        self._m_preemptions = registry.counter(
            "repro_preemptions_total", "Phase-boundary preemptions"
        )
        self._m_resizes = registry.counter(
            "repro_resizes_total", "Elastic-dop worker-set resizes"
        )
        self._m_retries = registry.counter(
            "repro_retries_total",
            "Retry round-trips by typed failure class",
            labels=("failure_class",),
        )
        self._m_shed = registry.counter(
            "repro_shed_total",
            "Sessions shed at submission",
            labels=("tenant", "reason"),
        )
        self._m_cache = registry.counter(
            "repro_cache_events_total",
            "Pipeline-cache lifetime events",
            labels=("event",),
        )
        self._m_faults = registry.counter(
            "repro_faults_total", "Injected faults fired", labels=("kind",)
        )
        self._m_util = registry.gauge(
            "repro_resource_utilization",
            "Closed-window utilization per shared DES resource",
            labels=("resource",),
        )
        self._m_budget = registry.gauge(
            "repro_budget_in_use",
            "Admission budget currently charged, per dimension",
            labels=("dimension",),
        )
        self._m_quota = registry.gauge(
            "repro_tenant_budget_in_use",
            "Per-tenant quota budget currently charged (capped "
            "dimensions only)",
            labels=("tenant", "dimension"),
        )
        self._m_drives = registry.counter(
            "repro_drives_total", "Completed EngineServer.run() drives"
        )

    def _sample_gauges(self) -> None:
        """Point-in-time gauges + lifetime-counter syncs, taken when the
        surface is read (a scrape or a drive's report).  Reads the
        simulation, writes only the metrics side."""
        for resource, value in self._metrics_monitor.sample().items():
            self._m_util.set(value, resource=resource)
        for dim in DIMENSIONS:
            self._m_budget.set(self.budget.in_use[dim], dimension=dim)
        for state in self.tenant_states.values():
            if state.budget is self.budget:
                continue  # uncapped: no slice of its own
            for dim in DIMENSIONS:
                if math.isfinite(state.budget.capacity[dim]):
                    self._m_quota.set(
                        state.budget.in_use[dim],
                        tenant=state.name,
                        dimension=dim,
                    )
        cache = self.executor.pipeline_cache
        if cache is not None:
            snap = cache.snapshot()
            for event in CACHE_EVENTS:
                self._m_cache.sync(snap[event], event=event)
        if self.faults is not None:
            fired = self.faults.snapshot()
            for kind in ("device_losses", "stragglers", "spurious_aborts"):
                self._m_faults.sync(fired.get(kind, 0), kind=kind)

    def metrics_text(self) -> str:
        """Prometheus text exposition of the live metrics surface."""
        self._sample_gauges()
        return self.metrics.render_text()

    # -- data plane (delegates to the shared engine) -----------------------

    def register(self, table: Table, placement: Optional[Placement] = None) -> None:
        self.engine.register(table, placement)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        plan: Plan,
        config: ExecutionConfig,
        name: Optional[str] = None,
        qos: Optional[QoS] = None,
        tenant: Optional[str] = None,
    ) -> QuerySession:
        """Queue a query for admission; callable before or during a run.

        ``qos`` carries the scheduling contract (priority class +
        deadline + reporting label; default :meth:`QoS.batch`).  Raises
        :class:`AdmissionError` immediately when the estimated demand
        exceeds the budget's total capacity (it could never run).  When
        the admission queue is bounded and full, the session is **shed**:
        returned with status ``"shed"``, its ``done`` event triggered,
        holding no resources.

        ``tenant`` names a registered :class:`Tenant` (raises on an
        unknown name).  A rate-limited tenant's submission that finds no
        whole token is shed at the edge — ``shed_reason ==
        "rate_limited"`` with a ``retry_after`` back-off hint — before
        it occupies queue space; a capped tenant's query whose demand
        could never fit the tenant's quota slice raises
        :class:`AdmissionError` just like one that exceeds the server.
        """
        qos = qos or QoS()
        state = self._state_for(tenant)
        state.submitted += 1
        het, demand = self._shape(plan, config, qos, state.budget)
        now = self.sim.now
        session = QuerySession(
            query_id=self._next_id,
            name=name or f"q{self._next_id}",
            plan=plan,
            config=config,
            het=het,
            demand=demand,
            qos=qos,
            tenant=tenant,
            submit_time=now,
            deadline=(
                now + demand.deadline_seconds
                if demand.deadline_seconds is not None
                else None
            ),
            done=self.sim.event(name=f"q{self._next_id}:done"),
        )
        self._next_id += 1
        self.sessions.append(session)
        if state.bucket is not None:
            retry_after = state.bucket.take(now)
            if retry_after is not None:
                return self._shed(session, "rate_limited", retry_after)
        if (
            self.max_queue_depth is not None
            and len(self._pending) >= self.max_queue_depth
        ):
            return self._shed(session, "queue_full")
        self._move(session, "queued")
        self._wake_admission()
        return session

    def _shape(
        self,
        plan: Plan,
        config: ExecutionConfig,
        qos: QoS,
        budget: ResourceBudget,
        exclude_devices: frozenset[int] = frozenset(),
    ) -> tuple[HetPlan, QueryDemand]:
        """Place, estimate, and check the demand could ever run.

        The one shaping path: a first submission and every retry's
        degraded shape are held to the same walls — the server budget
        *and* the tenant's quota slice.  Raises :class:`AdmissionError`
        naming the wall the demand exceeds.
        """
        het = self.placer.place(plan, config, exclude_devices=exclude_devices)
        demand = self._estimate_demand(het, config, qos)
        wall = budget.too_small_for(demand)
        if wall is not None:
            raise AdmissionError(
                f"query demand {demand.as_dict()} exceeds {wall.label} "
                f"{wall.capacity}"
            )
        return het, demand

    def _shed(
        self,
        session: QuerySession,
        reason: str,
        retry_after: Optional[float] = None,
    ) -> QuerySession:
        """Refuse a submission at the edge (terminal, holds nothing)."""
        session.shed_reason = reason
        session.retry_after = retry_after
        self._m_shed.inc(tenant=self._tenant_label(session.tenant), reason=reason)
        self._finish(session, "shed")
        return session

    def spawn_client(
        self,
        plans: Sequence[Plan],
        config: ExecutionConfig,
        think_seconds: float = 0.0,
        name: str = "client",
        qos: Optional[QoS] = None,
        tenant: Optional[str] = None,
    ):
        """Closed-loop client: submit, await completion, think, repeat.

        A client that dies mid-loop (e.g. a later plan is rejected by
        admission) is surfaced by the next :meth:`run` as a
        :class:`SchedulerError` — its remaining queries were never
        submitted and must not be mistaken for a completed workload.
        """

        def client():
            for index, plan in enumerate(plans):
                session = self.submit(
                    plan, config, name=f"{name}-{index}", qos=qos, tenant=tenant
                )
                yield session.done
                if think_seconds:
                    yield self.sim.timeout(think_seconds)

        proc = self.sim.process(client(), name=f"client:{name}")
        self._clients.append(proc)
        return proc

    def spawn_open_loop(
        self,
        plans: Sequence[Plan],
        config: ExecutionConfig,
        *,
        rate_qps: float,
        arrivals: int,
        seed: int = 0,
        qos: Optional[QoS] = None,
        name: str = "open",
        tenant: Optional[str] = None,
    ):
        """Open-loop Poisson arrival generator (deterministic per seed).

        Submits ``arrivals`` queries with exponentially distributed
        inter-arrival gaps at mean rate ``rate_qps``, cycling through
        ``plans``, *without* waiting for completions — arrival pressure
        is independent of service capacity, which is what exposes
        overload behaviour.  Pair with ``max_queue_depth`` so saturation
        sheds instead of queueing without bound; shed sessions appear in
        the drive's report with status ``"shed"``.
        """
        if rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        if arrivals < 1:
            raise ValueError("arrivals must be >= 1")
        if not plans:
            raise ValueError("plans must be non-empty")

        def generator():
            rng = random.Random(seed)
            for index in range(arrivals):
                yield self.sim.timeout(rng.expovariate(rate_qps))
                self.submit(
                    plans[index % len(plans)],
                    config,
                    name=f"{name}-{index}",
                    qos=qos,
                    tenant=tenant,
                )

        proc = self.sim.process(generator(), name=f"open:{name}")
        self._clients.append(proc)
        return proc

    # -- the scheduler ----------------------------------------------------

    def run(self) -> BatchReport:
        """Drive every submitted (and client-submitted) query to completion.

        Raises :class:`SchedulerError` on a stalled batch or a dead
        closed-loop client — cleanup (budget release, done events,
        session consumption) still happens, and the drive's report
        remains available as :attr:`last_report` so an aborted drive
        never skews the next one's makespan or throughput.
        """
        self.start()
        self.sim.run()
        return self.finish_drive()

    def start(self) -> None:
        """Arm the serving processes without driving the simulator.

        Idempotent.  An external owner of the shared clock (the fleet)
        calls this on every backend, runs the one simulator itself, and
        closes each drive with :meth:`finish_drive`; :meth:`run` is the
        single-server composition of the three.
        """
        self._ensure_admission()
        if self.faults is not None:
            self.faults.arm()

    def finish_drive(self) -> BatchReport:
        """Close out a drive after the shared simulator has drained."""
        try:
            self._check_stalled()
        finally:
            self.last_report = self._report()
        return self.last_report

    def _ensure_admission(self) -> None:
        if self._admission_proc is None or self._admission_proc.triggered:
            self._admission_proc = self.sim.process(
                self._admission(), name="admission-control"
            )

    def _admission(self):
        """Admission pump: dispatch all work that fits, then sleep."""
        while True:
            self._dispatch()
            self._admission_wakeup = self.sim.event(name="admission:wakeup")
            yield self._admission_wakeup

    def _wake_admission(self) -> None:
        wakeup, self._admission_wakeup = self._admission_wakeup, None
        if wakeup is not None:
            wakeup.trigger(None)

    # -- admission policy --------------------------------------------------

    def _rank(self, session: QuerySession) -> tuple:
        """Admission order: priority desc, deadline asc, submission order.

        FIFO mode ranks purely by submission order (query ids are
        monotonic), reproducing the original head-of-line behaviour.
        """
        if self.admission == "fifo":
            return (session.query_id,)
        deadline = session.deadline if session.deadline is not None else math.inf
        return (-session.priority, deadline, session.submit_time, session.query_id)

    def _waiting(self) -> Iterator[QuerySession]:
        """Queued + paused sessions in admission order (paused sessions
        re-enter the same priority queue to be resumed), merged lazily
        from the per-tenant queues: reading the head costs the head.

        With registered tenants and SLA admission, the per-tenant queues
        are merged by weighted deficit round-robin: among deficit-
        eligible tenants the one with the highest-priority head goes
        first, so the QoS ladder stays strict across tenants and the
        weights arbitrate within a priority band.  FIFO mode keeps pure
        submission order — tenancy there is accounting only.
        """
        backlogged = [queue for queue in self._queues.values() if queue]
        if len(backlogged) <= 1:
            return iter(backlogged[0] if backlogged else ())
        if self.admission == "fifo":
            return heapq.merge(*backlogged, key=self._rank)
        # (the queues' keys are the tenants in registration order)
        return self._drr.merge(
            self._queues, self._drr_weights, self._queues, _PRIORITY
        )

    def _queue_of(self, session: QuerySession) -> list[QuerySession]:
        return self._queues[self._tenant_label(session.tenant)]

    def _enqueue(self, session: QuerySession) -> None:
        insort(self._queue_of(session), session, key=self._rank)

    def _unqueue(self, session: QuerySession) -> None:
        queue = self._queue_of(session)
        del queue[bisect_left(queue, self._rank(session), key=self._rank)]

    def _reshape(self, session: QuerySession, demand: QueryDemand) -> None:
        """Replace the session's demand — which carries the priority
        ``_rank`` reads, so a waiting session is re-keyed around it."""
        waiting = session.query_id in self._pending or session.query_id in self._paused
        if waiting:
            self._unqueue(session)
        session.demand = demand
        if waiting:
            self._enqueue(session)

    @staticmethod
    def _admission_need(session: QuerySession) -> QueryDemand:
        """What admitting (or resuming) the session would charge now: a
        paused session already holds its memory share, so only the
        compute share must fit again."""
        if session.status == "paused":
            return _compute_share(session.demand)
        return session.demand

    def _dispatch(self) -> None:
        """Admit (or resume) every session the policy allows right now.

        While a preemption campaign is in flight (some running session
        still carries a preempt request), backfill is suspended below
        the blocked waiter's priority: the compute each pausing victim
        frees is *reserved* for that waiter, otherwise a multi-victim
        preemption can never accumulate enough headroom — the first
        victim to pause would be backfill-resumed in the same instant.

        Backfill is also bounded by the anti-starvation barrier: each
        admission past a blocked head increments its ``bypassed`` count,
        and once that reaches ``backfill_limit`` nothing further passes
        it — the budget then drains until the head fits, giving a large
        equal-priority query the bounded admission delay strict FIFO
        used to guarantee.
        """
        while True:
            campaign = self._campaign_in_flight()
            admitted = None
            blocked_head: Optional[QuerySession] = None
            for session in self._waiting():
                if self._running >= self.max_concurrent:
                    break
                if self._budget_of(session).fits(self._admission_need(session)):
                    if campaign and blocked_head is not None:
                        # freed compute is reserved for the campaign's
                        # blocked waiter; handing it to anything ranked
                        # below the waiter — including an equal-priority,
                        # later-deadline peer — would waste the pauses
                        continue
                    if blocked_head is not None:
                        if (
                            self.backfill_limit is not None
                            and blocked_head.bypassed >= self.backfill_limit
                        ):
                            break  # barrier: stop starving the head
                        blocked_head.bypassed += 1
                    admitted = session
                    break
                if blocked_head is None:
                    blocked_head = session
                if self.admission == "fifo":
                    break  # head-of-line blocking is the FIFO contract
                # sla: backfill — a later, smaller query may still fit
            if admitted is None:
                break
            self._activate(admitted)
        if self.preemption:
            self._maybe_preempt()

    def _move(self, session: QuerySession, status: str) -> None:
        """The one place a session's status changes — and with it the
        queue it sits in and the pause span it may be closing."""
        seated = self._seats[session.status].pop(session.query_id, None)
        if seated is not None and session.status != "running":
            self._unqueue(session)
        if session.pause_started is not None:
            # leaving a pause, to resume or for good: the span counts
            session.suspended_seconds += self.sim.now - session.pause_started
            session.pause_started = None
        session.status = status
        if status == "paused":
            session.pause_started = self.sim.now
        if status in self._seats:
            self._seats[status][session.query_id] = session
            if status != "running":
                self._enqueue(session)

    def _refund(self, session: QuerySession) -> None:
        """Give back whatever the session still holds."""
        held, session.held_demand = session.held_demand, None
        if held is not None:
            self._budget_of(session).release(held)

    def _finish(
        self,
        session: QuerySession,
        status: str,
        error: Optional[BaseException] = None,
    ) -> None:
        """Make a session terminal — the only code that does.

        Typed status, the pause tail, the refund of whatever is still
        charged, the session's metric feeds (status already terminal),
        the done event and the admission wake-up all happen
        here, in this order, whoever ends the session: its driver,
        :meth:`cancel` of a queued session (first time or after a
        retry), a shed at the edge, or stall cleanup.
        """
        self._move(session, status)
        session.error = error
        session.error_class = (
            classify_failure(error)[0] if error is not None else None
        )
        session.finish_time = self.sim.now
        session.preempt_requested = False
        self._drivers.pop(session.query_id, None)
        self._refund(session)
        tenant = self._tenant_label(session.tenant)
        self._m_sessions.inc(tenant=tenant, qos_class=session.label, status=status)
        if status == "done" and session.latency is not None:
            self._m_latency.observe(session.latency, tenant=tenant)
        if session.queue_seconds is not None:
            self._m_queue_wait.observe(session.queue_seconds, tenant=tenant)
        session.done.trigger(session)
        if status != "shed":
            # a shed session never entered the queue and held nothing:
            # nothing admission can see has changed
            self._wake_admission()

    def _campaign_in_flight(self) -> bool:
        """Is some running session still asked to yield for a waiter?"""
        return self.preemption and any(
            s.preempt_requested for s in self._active_sessions.values()
        )

    def _activate(self, session: QuerySession) -> None:
        """Resume a paused session, or start a queued one's attempt —
        the one place any attempt's driver is spawned."""
        self._budget_of(session).allocate(self._admission_need(session))
        self._charge_drr(session)
        resumed = session.status == "paused"
        session.held_demand = session.demand
        self._move(session, "running")
        if resumed:
            resume, session.resume_event = session.resume_event, None
            resume.trigger(None)
            return
        if session.admit_time is None:
            # a retry keeps its first admission: queue_seconds measures
            # the first wait, and the trajectory starts once
            session.admit_time = self.sim.now
            if self.elastic and session.config.cpu_workers:
                session.dop_trajectory.append(
                    (self.sim.now, session.config.cpu_workers)
                )
        driver = self._query_proc(session)
        self._drivers[session.query_id] = (
            driver,
            self.sim.process(driver, name=f"{session.tag}:driver"),
        )

    def _charge_drr(self, session: QuerySession) -> None:
        """Spend one DRR unit for an actual admission; the still-waiting
        tenants' deficits replenish by weight until someone is eligible."""
        if len(self.tenant_states) <= 1:
            return
        own = self._tenant_label(session.tenant)
        backlog = {
            label: self._drr_weights[label]
            for label, queue in self._queues.items()
            # the session being admitted still sits in its own queue
            if len(queue) > (1 if label == own else 0)
        }
        self._drr.charge(own, backlog)

    def _preemptable(self, session: QuerySession) -> bool:
        """Can this running session still honour a preemption request?

        A query in its final wave has no checkpoint ahead; asking it to
        yield would leave a stale request that blocks better victims.
        One that has not entered execution yet (still paying compile
        latency) has every *planned* boundary ahead of it, so the
        request is made now and honoured at its first boundary.
        """
        remaining = self.executor.checkpoints_remaining(session.tag)
        if remaining is None:
            remaining = self.executor.planned_checkpoints(session.het)
        return remaining > 0

    def _maybe_preempt(self) -> None:
        """Request phase-boundary preemption when it unblocks a waiter.

        Finds the highest-ranked waiting session that cannot currently
        be admitted, then marks the cheapest set of strictly-lower-
        priority running victims whose *compute share* would let it fit
        (pausing frees cores/GPUs/PCIe only — resident operator state
        keeps its memory charged).  If no such set exists the request is
        not made at all — pausing queries without unblocking anyone only
        wastes phase boundaries.
        """
        blocked = next(self._waiting(), None)
        if blocked is None:
            return
        need = self._admission_need(blocked)
        budget = self._budget_of(blocked)
        pending = [
            s for s in self._active_sessions.values()
            if s.preempt_requested and self._preemptable(s)
        ]
        releases = [(self._budget_of(s), _compute_share(s.demand)) for s in pending]
        free_slots = self.max_concurrent - self._running + len(pending)
        if free_slots >= 1 and budget.fits_with_release(need, releases):
            return  # already-requested preemptions will unblock it
        # a waiter blocked on its own tenant quota may only preempt
        # victims charged through the same slice — pausing other tenants'
        # queries would let one tenant's pressure punch through the
        # isolation wall
        wall = budget.blocked_at(need)
        own_quota = wall is not None and wall is not self.budget
        victims = sorted(
            (
                s for s in self._active_sessions.values()
                if s.priority < blocked.priority
                and not s.preempt_requested
                and self._preemptable(s)
                and (not own_quota or self._budget_of(s) is wall)
            ),
            key=lambda s: (s.priority, -(s.admit_time or 0.0), -s.query_id),
        )
        chosen: list[QuerySession] = []
        for victim in victims:
            chosen.append(victim)
            releases.append((self._budget_of(victim), _compute_share(victim.demand)))
            if (
                free_slots + len(chosen) >= 1
                and budget.fits_with_release(need, releases)
            ):
                for session in chosen:
                    session.preempt_requested = True
                return

    def _at_boundary(self, session: QuerySession):
        """The executor's one phase-boundary hook (a generator): fire
        the chaos tier's boundary faults, pause for a preemption request
        (yielding the resume event), then return the elastic resize for
        the remaining waves, or None."""
        if self.faults is not None:
            # phase boundaries are the chaos tier's second clock:
            # boundary-triggered device losses fire here
            self.faults.on_phase_boundary()
        if session.preempt_requested:
            session.preempt_requested = False
            # The requester may already have finished (e.g. it fit after
            # another session completed): only pause if yielding still
            # serves a higher-priority waiter.
            if any(w.priority > session.priority for w in self._waiting()):
                session.preemptions += 1
                self._m_preemptions.inc()
                # compute share back to the pool; memory stays charged
                # for the hash tables resident in the suspended generator
                self._budget_of(session).release(_compute_share(session.demand))
                session.held_demand = _memory_share(session.demand)
                self._move(session, "paused")
                session.resume_event = self.sim.event(name=f"{session.tag}:resume")
                self._wake_admission()
                yield session.resume_event
        return self._elastic_decision(session) if self.elastic else None

    # -- elastic degree of parallelism -------------------------------------

    def _grow_room(self, session: QuerySession) -> float:
        """Whole cores a growing query may claim without starving the
        admission queue: the server budget's headroom minus the cores of
        the highest-ranked waiter that could actually be admitted now —
        and never more than the session's own budget has left, or an
        elastic tenant could creep past its capped share."""
        headroom = self.budget.headroom()["cpu_cores"]
        if not math.isfinite(headroom):
            # uncapped budget dimension: the physical core count minus
            # what admitted queries already hold is the real headroom —
            # falling back to the raw core count would let co-resident
            # elastic queries collectively grow far past the machine
            headroom = len(self.server.cores) - self.budget.in_use["cpu_cores"]
        head = next(self._waiting(), None)
        if head is not None and self._running < self.max_concurrent:
            headroom -= self._admission_need(head).cpu_cores
        own = self._budget_of(session).headroom()["cpu_cores"]
        return min(max(0.0, headroom), own)

    def _elastic_target(self, session: QuerySession) -> Optional[int]:
        """Desired CPU dop for the session's remaining waves, or None.

        Shrink when the most-contended socket's DRAM utilization over
        the last closed window exceeds the policy target (halving, never
        below ``min_dop``); grow when utilization is below
        ``grow_below * target`` (doubling, clamped to ``max_dop``, the
        server's core count, and the budget's remaining whole cores).
        Growth is suppressed while a preemption campaign is in flight —
        the compute the victims free is reserved for the blocked waiter.
        """
        policy = self.elastic_policy
        config = session.current_config
        if config.bare or config.cpu_workers == 0:
            return None
        dram = self._monitor.dram_utilization()
        if dram is None:
            return None
        dop = config.cpu_workers
        total_cores = len(self.server.cores)
        lo = min(policy.min_dop, total_cores)
        hi = min(policy.max_dop or total_cores, total_cores)
        if dram > policy.target_utilization and dop > lo:
            return max(lo, dop // 2)
        if dram < policy.target_utilization * policy.grow_below and dop < hi:
            if self._campaign_in_flight():
                return None
            target = min(hi, dop * 2, dop + int(self._grow_room(session)))
            if dram > 0.0:
                # Predictive cap: growing multiplies the query's
                # streaming demand roughly by new/old dop — grow only to
                # the point where the projected utilization reaches the
                # target, so the headroom above it stays free for
                # higher-priority bursts instead of being colonised and
                # then slowly clawed back by shrinks.
                target = min(target, int(dop * policy.target_utilization / dram))
            return target if target > dop else None
        return None

    def _elastic_decision(
        self, session: QuerySession
    ) -> Optional[tuple[ExecutionConfig, list[int]]]:
        """Decide and account one resize at a phase boundary.

        Only the compute delta moves through the budget — the memory
        dimensions stay charged exactly as admitted.  On shrink that is
        conservative (operator state built so far remains resident); on
        grow it is *deliberately optimistic*: the extra workers' staging
        slots (``staging_bytes_per_worker`` in
        :meth:`~repro.hardware.costmodel.CostModel.admission_demand`)
        are not re-charged, because staging comes from the pre-allocated
        block arenas rather than admission-governed allocations — a
        DRAM-tight budget therefore bounds admission, not growth.
        Returns the ``(config, affinity)`` pair the executor applies to
        the remaining waves, or None to keep the current shape.
        """
        target = self._elastic_target(session)
        config = session.current_config
        if target is None or target == config.cpu_workers:
            return None
        delta = target - config.cpu_workers
        budget = self._budget_of(session)
        if delta > 0:
            budget.allocate(QueryDemand(cpu_cores=delta))
        else:
            budget.release(QueryDemand(cpu_cores=-delta))
        self._m_resizes.inc()
        new_config = config.derive(cpu_workers=target)
        affinity = self.placer.cpu_affinity(new_config)
        session.current_config = new_config
        self._reshape(session, replace(session.demand, cpu_cores=target))
        if session.held_demand is not None:
            session.held_demand = replace(session.held_demand, cpu_cores=target)
        session.resizes += 1
        session.dop_trajectory.append((self.sim.now, target))
        if delta < 0:
            # freed cores may unblock queued or paused sessions
            self._wake_admission()
        return new_config, affinity

    def _query_proc(self, session: QuerySession):
        """DES driver for one attempt of an admitted query: compile,
        execute, collect.

        Failures are classified (:func:`~repro.engine.faults.classify_failure`)
        instead of blanket-failed: a retryable class — device loss,
        transfer timeouts, spurious aborts — is handed to :meth:`_requeue`
        on a placement that excludes dead devices (bounded by the
        server's :class:`~repro.engine.faults.RetryPolicy`) and this
        driver ends; :meth:`_activate` starts the next attempt's.  Plan
        bugs, OOM and placement errors stay fatal but carry a typed
        ``error_class`` either way.
        """
        failure: Optional[BaseException] = None
        try:
            # Two-phase compilation: resident pipelines are pinned NOW (a
            # concurrent eviction cannot invalidate them), fresh ones are
            # compiled — and published to the shared cache — only after
            # their simulated compile latency has elapsed, so a
            # concurrently admitted identical query pays for its own
            # compilation instead of free-riding on an unfinished one.
            compilation = self.executor.begin_compilation(session.het)
            session.compiled_fresh += compilation.fresh_count
            if compilation.fresh_count and self.compile_seconds:
                # per-device, per-complexity pricing: a GPU build-sink
                # pipeline pays ~5-10x what a trivial CPU filter does
                charged = compilation.compile_seconds(self.compile_seconds)
                session.compile_seconds_charged += charged
                yield self.sim.timeout(charged)
            pipelines = compilation.finish()
            raw = yield from self.executor.execute_process(
                session.het,
                session.current_config,
                query_id=session.tag,
                pipelines=pipelines,
                boundary=partial(self._at_boundary, session),
            )
            session.result = self.engine._collect(session.het.collect, raw)
        except Exception as error:
            label, retryable = classify_failure(error)
            retry = self._plan_retry(session) if retryable else None
            if retry is not None:
                session.retried_classes.append(label)
                self._m_retries.inc(failure_class=label)
                self._requeue(session, retry)
                return
            failure = error
        self._finish(session, "done" if failure is None else "failed", failure)

    def _plan_retry(
        self, session: QuerySession
    ) -> Optional[tuple[ExecutionConfig, HetPlan, QueryDemand]]:
        """Shape the next attempt, or None to fail terminally.

        Dead devices are excluded through the placer's
        ``exclude_devices`` constraint, and losing *any* GPU drops the
        retry to a CPU-only placement.  A degraded shape that cannot be
        placed, or that :meth:`_shape` finds could never fit the server
        budget or the tenant's quota, ends the retry campaign.
        """
        policy = self.retry_policy
        if policy is None or session.attempts >= policy.max_attempts:
            return None
        dead = frozenset(self.server.failed_gpus)
        config = session.current_config
        gpu_ids = () if dead.intersection(config.gpu_ids) else config.gpu_ids
        cpu_workers = config.cpu_workers
        if not gpu_ids and cpu_workers == 0:
            cpu_workers = (
                1 if config.bare
                else min(policy.fallback_cpu_workers, len(self.server.cores))
            )
        try:
            new_config = config.derive(cpu_workers=cpu_workers, gpu_ids=gpu_ids)
            het, demand = self._shape(
                session.plan, new_config, session.qos, self._budget_of(session), dead
            )
        # Intentional blanket catch: ANY failure to shape a degraded
        # placement means "no retry possible" — the session then fails
        # terminally with its ORIGINAL typed error (the caller is the
        # driver's classify_failure path), which is strictly more useful
        # than surfacing the shaping error here.
        except Exception:  # repro: noqa[RP004]
            return None
        return new_config, het, demand

    def _requeue(
        self,
        session: QuerySession,
        retry: tuple[ExecutionConfig, HetPlan, QueryDemand],
    ) -> None:
        """``running -> queued`` for a retry: give back the failed
        attempt's budget, reshape the session for the next attempt and
        re-enter the admission queue, where :meth:`_activate` starts the
        next attempt's driver."""
        new_config, het, demand = retry
        self._refund(session)
        if len(new_config.gpu_ids) < len(session.current_config.gpu_ids):
            session.fell_back = True
        session.attempts += 1
        session.current_config = new_config
        session.het = het
        self._reshape(session, demand)
        session.preempt_requested = False
        # a retry is not a new arrival: it bypasses max_queue_depth (the
        # session was already admitted once and sheds nothing)
        self._move(session, "queued")
        self._wake_admission()

    def cancel(self, session: QuerySession, cause: Any) -> bool:
        """Cancel one session with a typed cause (the fleet's lever).

        A session with a live driver — running, or paused at a phase
        boundary — is interrupted with ``cause``; the driver unwinds
        (executor state teardown via ``abort_outstanding``) into
        :meth:`_finish`, and :func:`~repro.engine.faults.classify_failure`
        types the terminal status from the cause.  A queued session — not
        admitted yet, or waiting to be re-admitted after a retry — is
        failed at the edge, holding nothing: an exception cause is its
        error, a string becomes ``SchedulerError("cancelled: …")``.
        Returns False if the session already reached a terminal state
        (cancellation raced completion).
        """
        if session.finished:
            return False
        _, process = self._drivers.get(session.query_id, (None, None))
        if process is not None and process.is_alive:
            process.interrupt(cause)
            return True
        self._finish(
            session,
            "failed",
            cause
            if isinstance(cause, BaseException)
            else SchedulerError(f"cancelled: {cause}"),
        )
        return True

    def _abort_victim(self, target: Optional[str], reason: str) -> Optional[str]:
        """Deliver a spurious abort to one running session's driver.

        Picks the named session, or — deterministically — the earliest-
        admitted running one; returns its name, or None when nothing is
        abortable (the fault fizzles).  The interrupt surfaces in the
        driver as a retryable ``aborted`` failure.
        """
        candidates = [
            s for s in self._active_sessions.values()
            if target is None or s.name == target
        ]
        if not candidates:
            return None
        victim = min(
            candidates,
            key=lambda s: (s.admit_time or 0.0, s.query_id),
        )
        _, process = self._drivers[victim.query_id]
        process.interrupt(reason)
        return victim.name

    def _check_stalled(self) -> None:
        """Detect (and clean up after) every failure mode of a drive.

        ALL cleanup happens before anything is raised: a drive that has
        both a dead client and a stuck session must still release the
        stuck session's budget and trigger its done event.
        """
        problems: list[str] = []
        stuck = [s for s in self.sessions if s.status in ("running", "paused")]
        if stuck:
            details = "; ".join(
                f"{s.name}: parked at a preemption checkpoint with no "
                f"scheduler left to resume it"
                if s.status == "paused"
                else f"{s.name}: {self.executor.describe_stall(s.tag)}"
                for s in stuck
            )
            for session in stuck:
                # closing the suspended driver frees the executor's
                # state handles (via yield-from); everything the server
                # itself holds for the session is _finish's to give back
                generator, _ = self._drivers[session.query_id]
                generator.close()
                self._finish(session, "failed", SchedulerError(details))
            problems.append(f"batch stalled: {details}")
        dead_clients = [p for p in self._clients if p.triggered and not p.ok]
        if dead_clients:
            self._clients = [p for p in self._clients if p not in dead_clients]
            details = "; ".join(f"{p.name}: {p.value!r}" for p in dead_clients)
            problems.append(
                f"closed-loop client(s) died mid-loop (their remaining "
                f"queries were never submitted): {details}"
            )
        queued = [s for s in self.sessions if s.status == "queued"]
        if not problems and queued and self._running == 0:
            names = [s.name for s in queued]
            problems.append(f"admission stalled with idle server; queued: {names}")
        if problems:
            raise SchedulerError("; ".join(problems))

    # -- reporting ---------------------------------------------------------

    def _report(self) -> BatchReport:
        finished, makespan = drive_window(self.sessions, self._reported_ids)
        completed = sum(1 for s in finished if s.status == "done")
        throughput = completed / makespan if makespan > 0 else 0.0
        cache = self.executor.pipeline_cache
        self._m_drives.inc()
        self._sample_gauges()
        return BatchReport(
            sessions=finished,
            makespan=makespan,
            throughput_qps=throughput,
            # `is not None`, not truthiness: an enabled-but-empty cache
            # (e.g. every session failed before put) still has counters
            cache=cache.snapshot() if cache is not None else {},
            faults=self.faults.snapshot() if self.faults is not None else {},
            tenants=self._tenant_rollup(finished),
            metrics=self.metrics.snapshot(),
        )

    def _tenant_rollup(self, finished: list[QuerySession]) -> dict:
        """Per-tenant drive rollup for :attr:`BatchReport.tenants`.

        Session counts and latency percentiles cover *this* drive;
        ``budget_peak``/``budget_capacity`` (capped tenants only) are
        the quota slice's lifetime figures.
        """
        out: dict[str, dict] = {}
        groups: dict[str, list[QuerySession]] = {}
        for session in finished:
            groups.setdefault(self._tenant_label(session.tenant), []).append(session)
        for key, state in self.tenant_states.items():
            label = self._tenant_label(key)
            sessions = groups.get(label, [])
            if not sessions and not state.submitted:
                continue  # never saw traffic: keep the rollup readable
            record: dict[str, Any] = {
                "weight": state.tenant.weight,
                "done": sum(1 for s in sessions if s.status == "done"),
                "failed": sum(1 for s in sessions if s.status == "failed"),
                "shed": sum(1 for s in sessions if s.status == "shed"),
                "shed_rate_limited": sum(
                    1 for s in sessions if s.shed_reason == "rate_limited"
                ),
                "shed_queue_full": sum(
                    1 for s in sessions if s.shed_reason == "queue_full"
                ),
                # the most conservative back-off hint handed out with a
                # rate-limited shed this drive (None: no such shed)
                "retry_after": max(
                    (
                        s.retry_after
                        for s in sessions
                        if s.shed_reason == "rate_limited"
                        and s.retry_after is not None
                    ),
                    default=None,
                ),
                "preemptions": sum(s.preemptions for s in sessions),
                "retries": sum(s.retries for s in sessions),
            }
            tails = _done_latency_tails(sessions)
            if tails is not None:
                record["latency"] = tails
            if state.budget is not self.budget:
                capped = {
                    dim for dim in DIMENSIONS
                    if math.isfinite(state.budget.capacity[dim])
                }
                record["budget_capacity"] = {
                    dim: state.budget.capacity[dim] for dim in sorted(capped)
                }
                record["budget_peak"] = {
                    dim: state.budget.peak[dim] for dim in sorted(capped)
                }
            out[label] = record
        return out

    def check_conservation(self) -> dict[str, float]:
        """Assert resource accounting closed out; returns the totals.

        Checks the admission budget (allocated == released, nothing in
        use), that no operator-state allocation outlived its query on
        any memory node, and that every staging-arena slot is free
        (failed and shed queries included).
        """
        for state in self.tenant_states.values():
            # the default tenant's budget is the server budget itself
            state.budget.assert_conserved()
        for node_id, manager in self.executor.memory_managers.items():
            if manager.live_handles:
                raise AssertionError(
                    f"{manager.live_handles} state allocations leaked on "
                    f"{node_id} ({manager.live_bytes:.3e} logical bytes)"
                )
        for node_id, leaked in self.engine.blocks.unaccounted_blocks().items():
            if leaked:
                raise AssertionError(f"{leaked} staging block(s) leaked on {node_id}")
        totals = {
            f"allocated:{dim}": self.budget.total_allocated[dim]
            for dim in DIMENSIONS
        }
        totals.update(
            {f"released:{dim}": self.budget.total_released[dim] for dim in DIMENSIONS}
        )
        return totals

    # -- demand estimation -------------------------------------------------

    def _estimate_demand(
        self, het: HetPlan, config: ExecutionConfig, qos: QoS
    ) -> QueryDemand:
        """Cost-model demand estimate for one placed plan.

        Transfer volumes come from the placer's topology-routed
        :meth:`~repro.algebra.placer.HeterogeneousPlacer.transfer_profile`
        (the same path model the mem-move routes on at runtime): the
        PCIe dimension carries the host-resident stream a GPU
        configuration pulls over the links, the QPI dimension its
        cross-socket share.  State bytes come from each build phase's
        key+payload columns (plus the hash table's bucket overhead);
        staging is charged per worker at the query's configured
        ``prefetch_depth`` (each consumer instance may hold that many
        staging blocks in flight, plus queue slack).  The QoS contract
        rides along on the demand so the admission queue can rank
        entries without a side channel.
        """
        state_bytes = 0.0
        for phase in het.phases:
            if phase.produces_ht is None:
                continue
            source = phase.source_stages()[0]
            table = self.catalog.table(source.source.table)
            sink = next(
                (
                    op
                    for stage in phase.stages
                    for op in stage.ops
                    if isinstance(op, OpBuildSink)
                ),
                None,
            )
            if sink is None:
                continue
            columns = [c for c in [sink.build_key, *sink.payload] if c in table.columns]
            scale = self.catalog.logical_scale(table.name)
            state_bytes += (
                self.catalog.logical_bytes(table.name, columns)
                + 16.0 * table.num_rows * scale  # bucket/next-pointer overhead
            )
        profile = self.placer.transfer_profile(het, config)
        block_bytes = self.engine.blocks.block_bytes
        # CPU workers run the mem-move inline (one staged block at most,
        # plus shared-queue slack) — their charge is depth-independent;
        # only GPU consumer instances hold prefetch_depth staged blocks
        # in flight.
        cpu_staging = block_bytes * 4
        gpu_staging = block_bytes * (config.prefetch_depth + 2)
        return self.cost.admission_demand(
            streamed_bytes=profile.pcie_bytes,
            cpu_state_bytes=state_bytes if config.uses_cpu else 0.0,
            gpu_state_bytes=state_bytes if config.uses_gpu else 0.0,
            cpu_workers=config.cpu_workers,
            gpu_units=len(config.gpu_ids),
            gpu_streaming=profile.gpu_streaming,
            cross_socket_bytes=profile.qpi_bytes,
            staging_bytes_per_worker=cpu_staging,
            gpu_staging_bytes_per_unit=gpu_staging,
            priority=qos.priority,
            deadline_seconds=qos.deadline_seconds,
        )
