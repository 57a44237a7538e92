"""The heterogeneous executor: runs HetPlans on the simulated server.

This module is the runtime counterpart of Section 4 of the paper.  For
every phase of a heterogeneity-aware plan it builds a process network on
the discrete-event simulator:

* segmenter sources emit block handles (control plane only);
* one :class:`~repro.core.router.Router` per producer stage distributes
  handles to consumer groups (bounded queues => pull-style backpressure);
* per consumer instance, a *prefetcher* coroutine runs the mem-move
  producer half (:meth:`~repro.core.mem_move.MemMove.prefetch_proc`:
  asynchronous, topology-routed DMA for up to
  ``config.prefetch_depth`` blocks ahead, under credit-based staging
  backpressure) so transfers overlap the worker's compute;
  ``prefetch_depth=1`` disables the overlap — the worker runs the
  mem-move inline and the transfer sits on its critical path;
* worker coroutines run the JIT-compiled pipeline over each block (before
  its transfer wait, which moves host order only, so a cold router gets
  the block's stats at pickup), charge the cost model's resource demands
  (socket DRAM / GPU HBM / PCIe), and forward packed outputs to the next
  router.  A block a router cut into morsels runs the pipeline once, in
  the first worker to pick a morsel up; each morsel charges its share and
  the last one forwards the outputs.  GPU workers launch kernels inline through
  :func:`~repro.core.device_crossing.cpu2gpu` and return results through a
  :class:`~repro.core.device_crossing.Gpu2Cpu` queue.

Phases execute in order (hash-join builds before their probes); the
query's simulated time is the DES clock advance across all phases.

The executor is **re-entrant**: :meth:`Executor.execute_process` is a DES
generator that carries *all* per-query state (the
:class:`~repro.jit.pipeline.QueryState`, the operator-state handles, the
phase networks) in locals, so a scheduler can interleave any number of
queries on one shared simulator — routers, processes and stores are
tagged with the owning query id.  :meth:`Executor.execute` is the legacy
solo entry point: it wraps the process and drives the simulator to
completion itself.

**The one compile site.**  Compiling through the shared
:class:`~repro.jit.cache.PipelineCache` is a two-phase protocol that
lives here and nowhere else: :meth:`Executor.begin_compilation` signs
every stage and fetches (pins) the resident pipelines,
:meth:`PlanCompilation.finish` compiles the rest with the pure
:class:`~repro.jit.codegen.PipelineCompiler` and publishes them
first-writer-wins, priced by
:meth:`~repro.hardware.costmodel.CostModel.compile_demand`.
:meth:`Executor.compile_plan` is the two phases back to back.  Likewise
every block's stats become simulated resource demand in one place,
:meth:`Executor._charge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from ..algebra.physical import (
    ExchangeEdge,
    HetPlan,
    OpBuildSink,
    OpGroupAggSink,
    OpReduceSink,
    Phase,
    Stage,
    validate_placement,
    validate_stage_placement,
)
from ..core.device_crossing import Gpu2Cpu, cpu2gpu
from ..core.mem_move import MemMove, path_transfer_jobs
from ..core.router import ConsumerGroup, Router
from ..core.segmenter import Segmenter
from ..engine.config import ExecutionConfig
from ..engine.results import ExecutionProfile
from ..hardware.costmodel import (
    DEFAULT_COMPILE_SECONDS,
    BlockPrice,
    BlockStats,
    CostModel,
)
from ..hardware.sim import Simulator, Store
from ..hardware.topology import DeviceType, Server
from ..jit.cache import PipelineCache, stage_signature
from ..jit.codegen import PipelineCompiler
from ..jit.pipeline import CompiledPipeline, GroupTable, PipelineState, QueryState
from ..memory.block import Block, BlockHandle
from ..memory.managers import BlockManagerSet, MemoryManager
from ..storage.catalog import Catalog

__all__ = [
    "Executor",
    "RawExecution",
    "PlanCompilation",
    "QueryError",
]


class QueryError(RuntimeError):
    """Query execution failed (propagates device OOM and similar).

    ``process`` names the failed DES process when one could be
    attributed, ``phase`` the phase (or ``+``-joined wave of phases)
    that was executing — report summaries surface both so chaos-tier
    failures are attributable without spelunking tracebacks.  The root
    cause travels on ``__cause__`` (always raised ``from`` the
    underlying error), which is what the scheduler's failure classifier
    walks.
    """

    def __init__(
        self,
        message: str,
        *,
        process: Optional[str] = None,
        phase: Optional[str] = None,
    ):
        super().__init__(message)
        self.process = process
        self.phase = phase


@dataclass
class _Instance:
    """One pipeline instance: a worker pinned to a compute unit."""

    stage: Stage
    index: int
    device: DeviceType
    #: core id or gpu id
    unit: int
    #: memory node the instance reads/writes locally
    node_id: str
    #: state-sharing domain ('cpu' or 'gpu:<k>')
    domain: str
    state: PipelineState


@dataclass
class _PhaseRun:
    """Everything _setup_phase wired up, awaiting finalisation."""

    phase: Phase
    processes: list
    instance_map: dict[int, list["_Instance"]]
    created_tables: list[tuple[str, str, float]]
    mem_move: MemMove
    routers: dict[int, Router]
    phase_outputs: list


@dataclass
class PlanCompilation:
    """In-flight two-phase compilation (see :meth:`Executor.begin_compilation`).

    ``pipelines`` holds the cache-resident entries fetched at creation;
    ``missing`` the stages still to compile, each with the cache key it
    was looked up under (``None`` = not cacheable).  ``finish`` compiles
    them, publishes the results to the shared cache, and returns the
    complete stage-id -> pipeline map.
    """

    compiler: "PipelineCompiler"
    cache: Optional[PipelineCache]
    #: prices one stage's compilation in simulated seconds
    #: (:meth:`~repro.hardware.costmodel.CostModel.compile_demand`): the
    #: latency a scheduler charges and the cost-aware eviction score
    cost_of: Callable[[Stage], float]
    pipelines: dict[int, "CompiledPipeline"]
    missing: list[tuple[Stage, Optional[tuple]]]

    @property
    def fresh_count(self) -> int:
        """Stages whose compilation the caller must charge latency for."""
        return len(self.missing)

    def compile_seconds(self, base_seconds: Optional[float] = None) -> float:
        """Total simulated compile latency of the still-missing stages.

        Per-device, per-complexity pricing via ``cost_of``;
        ``base_seconds`` rescales the whole charge (a scheduler's
        ``compile_seconds`` knob; 0 disables charging).
        """
        base = DEFAULT_COMPILE_SECONDS if base_seconds is None else base_seconds
        scale = base / DEFAULT_COMPILE_SECONDS
        total = 0.0  # a left fold: builtin float sum compensates on 3.12+
        for stage, _ in self.missing:
            total += self.cost_of(stage)
        return scale * total

    def finish(self) -> dict[int, "CompiledPipeline"]:
        for stage, key in self.missing:
            pipeline = self.compiler.compile_stage(stage)
            if key is not None:
                # first-writer-wins: adopt the published entry so a
                # racing compile of the same shape never leaves two
                # distinct function objects in flight
                pipeline = self.cache.put(key, pipeline, cost=self.cost_of(stage))
            self.pipelines[stage.stage_id] = pipeline
        self.missing = []
        return self.pipelines


@dataclass
class RawExecution:
    """Executor output before result shaping (the engine decodes it)."""

    reduce_partials: list[dict[str, Any]] = field(default_factory=list)
    group_partials: list[GroupTable] = field(default_factory=list)
    row_blocks: list[dict[str, np.ndarray]] = field(default_factory=list)
    profile: ExecutionProfile = field(default_factory=ExecutionProfile)


class Executor:
    """Executes compiled HetPlans on one simulated server."""

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        catalog: Catalog,
        blocks: BlockManagerSet,
        cost: CostModel,
        pipeline_cache: Optional[PipelineCache] = None,
    ):
        self.sim = sim
        self.server = server
        self.catalog = catalog
        self.blocks = blocks
        self.cost = cost
        #: shared compiled-pipeline cache (None disables caching)
        self.pipeline_cache = pipeline_cache
        self.memory_managers = {
            node_id: MemoryManager(node)
            for node_id, node in server.memory_nodes.items()
        }
        #: chaos-tier hook installed by the engine server: a
        #: FaultInjector whose straggler_factor/transfer_timeout are
        #: threaded into every query's mem-move (None = faults off)
        self.fault_injector: Optional[Any] = None
        #: query id -> in-flight phase runs; diagnostics only (stall reports)
        self._active: dict[str, list["_PhaseRun"]] = {}
        #: query id -> phase boundaries still ahead of the running query;
        #: a scheduler consults this before requesting preemption (a query
        #: with none left can never honour the request)
        self._checkpoints_ahead: dict[str, int] = {}

    # -- public ---------------------------------------------------------------

    def compile_plan(self, plan: HetPlan) -> dict[int, CompiledPipeline]:
        """Compile every non-source stage, consulting the shared cache."""
        return self.begin_compilation(plan).finish()

    def begin_compilation(self, plan: HetPlan) -> "PlanCompilation":
        """Two-phase compilation for schedulers charging compile latency.

        Cache-resident pipelines are fetched (and thereby pinned — a
        concurrent eviction cannot invalidate them) *now*; the remaining
        stages are compiled by :meth:`PlanCompilation.finish` after the
        caller has charged their simulated compile latency.  Freshly
        compiled pipelines enter the shared cache only at ``finish``, so
        a concurrently admitted identical query cannot observe a
        compilation that has not completed in simulated time.  Hit/miss
        statistics are counted exactly once per stage.
        """
        compiler = PipelineCompiler(self.catalog.column_widths())
        resident: dict[int, CompiledPipeline] = {}
        missing: list[tuple[Stage, Optional[tuple]]] = []
        for stage in plan.all_stages():
            if stage.is_source:
                continue
            key = cached = None
            if self.pipeline_cache is not None:
                key = stage_signature(stage, compiler.width)
                if key is not None:
                    cached = self.pipeline_cache.get(key)
            if cached is not None:
                resident[stage.stage_id] = cached
            else:
                missing.append((stage, key))
        return PlanCompilation(
            compiler,
            self.pipeline_cache,
            self.cost.compile_demand,
            resident,
            missing,
        )

    def execute(self, plan: HetPlan, config: ExecutionConfig,
                query_id: str = "q0") -> RawExecution:
        """Solo entry point: run one query to completion on an idle simulator.

        Schedulers interleaving several queries use
        :meth:`execute_process` directly and drive the simulator once for
        the whole batch; this wrapper must not be called while the
        simulator is already running.
        """
        gen = self.execute_process(plan, config, query_id=query_id)
        proc = self.sim.process(gen, name=f"{query_id}:execute")
        self.sim.run()
        if not proc.triggered:
            message = self.describe_stall(query_id)
            gen.close()  # run the generator's finally: release state handles
            raise QueryError(message)
        if not proc.ok:
            error = proc.value
            if isinstance(error, QueryError):
                raise error
            raise QueryError(f"query {query_id} failed: {error!r}") from error
        return proc.value

    def execute_process(
        self,
        plan: HetPlan,
        config: ExecutionConfig,
        query_id: str = "q0",
        pipelines: Optional[dict[int, CompiledPipeline]] = None,
        boundary: Optional[Any] = None,
    ):
        """DES process executing one query; returns a :class:`RawExecution`.

        All mutable execution state is local to this generator (plus the
        per-query ``QueryState``), so any number of these processes can be
        interleaved on the shared simulator.  ``query_id`` must be unique
        among concurrently running queries; it tags every router, store
        and process the query creates.

        ``boundary`` is the scheduler's one hook: a zero-argument
        callable returning a generator, run with ``yield from`` at every
        *phase boundary* (between dependency waves — never before the
        first wave or after the last).  The generator may yield events
        — a preempted query parks on its resume event there; all
        operator state (hash tables built by earlier waves, the
        per-query ``QueryState``, accounting) lives in this generator's
        locals, so a resumed query continues bit-for-bit where it left
        off — and the time spent in it counts as suspended.  A query in
        its final wave has no boundary left: requesting preemption there
        is a no-op by construction.

        The generator's return value is the elastic-dop decision:
        ``None`` keeps the current shape; ``(new_config, cpu_affinity)``
        re-derives every CPU consumer stage of the *remaining* waves at
        ``new_config.cpu_workers`` instances pinned to ``cpu_affinity``
        (:meth:`~repro.algebra.physical.Phase.with_cpu_dop`).  GPU
        stages are never resized: their dop is pinned to the per-device
        hash-table domains built by earlier phases.
        """
        # Validate eagerly (this is a plain function returning the DES
        # generator): an oversized dop or out-of-range affinity raises a
        # typed PlanValidationError at the call site, not an IndexError
        # after the simulator has started driving the query.
        validate_placement(plan, len(self.server.cores), len(self.server.gpus))
        return self._execute_gen(plan, config, query_id, pipelines, boundary)

    def _execute_gen(
        self,
        plan: HetPlan,
        config: ExecutionConfig,
        query_id: str,
        pipelines: Optional[dict[int, CompiledPipeline]],
        boundary: Optional[Any],
    ):
        if pipelines is None:
            pipelines = self.compile_plan(plan)
        query_state = QueryState(query_id=query_id)
        state_handles: list[tuple[MemoryManager, int]] = []
        out = RawExecution()
        start = self.sim.now
        current_wave: list["_PhaseRun"] = []
        suspended_seconds = 0.0
        waves = self._waves(plan)
        try:
            for wave_index, wave in enumerate(waves):
                self._checkpoints_ahead[query_id] = len(waves) - 1 - wave_index
                if boundary is not None and wave_index > 0:
                    pause_start = self.sim.now
                    update = yield from boundary()
                    suspended_seconds += self.sim.now - pause_start
                    if update is not None:
                        config, cpu_affinity = update
                        self._apply_cpu_resize(
                            waves, wave_index, config.cpu_workers, cpu_affinity
                        )
                wave_start = self.sim.now
                runs = [
                    self._setup_phase(
                        phase,
                        config,
                        pipelines,
                        query_state,
                        out,
                        first_wave=wave_index == 0,
                        query_id=query_id,
                    )
                    for phase in wave
                ]
                self._active[query_id] = runs
                current_wave = runs
                processes = [p for run in runs for p in run.processes]
                try:
                    yield self.sim.all_of(processes)
                except QueryError:
                    raise
                # NOT BaseException: GeneratorExit must pass through so a
                # scheduler can close() a stalled query and still run the
                # cleanup in the finally below.
                except Exception as error:
                    failed = next(
                        (p for p in processes if p.triggered and not p.ok),
                        None,
                    )
                    # No failed process means the error was delivered to
                    # the wave wait itself (e.g. the driver interrupted);
                    # attribute it to the executing phase(s), never "?".
                    phase_names = "+".join(run.phase.name for run in runs)
                    name = (
                        f"process {failed.name}" if failed is not None
                        else f"phase {phase_names!r}"
                    )
                    raise QueryError(
                        f"{name} failed: {error!r}",
                        process=failed.name if failed is not None else None,
                        phase=phase_names,
                    ) from error
                for run in runs:
                    self._finalize_phase(run, query_state, out, state_handles)
                    out.profile.phase_seconds[run.phase.name] = (
                        self.sim.now - wave_start
                    )
        finally:
            self._active.pop(query_id, None)
            self._checkpoints_ahead.pop(query_id, None)
            self._abort_wave(current_wave)
            for manager, handle in state_handles:
                manager.free(handle)
        out.profile.seconds = self.sim.now - start
        out.profile.suspended_seconds = suspended_seconds
        return out

    def _apply_cpu_resize(
        self,
        waves: list[list[Phase]],
        wave_index: int,
        dop: int,
        affinity: Optional[list[int]],
    ) -> None:
        """Re-derive the remaining waves' CPU stages at a new dop.

        Mutates the wave lists in place (the current iteration sees the
        resized phases); the already-completed waves — and the caller's
        :class:`HetPlan` — are left untouched.  The resized stages share
        their originals' stage ids, so the per-query pipelines map keeps
        resolving without recompilation.
        """
        for wave in waves[wave_index:]:
            for position, phase in enumerate(wave):
                resized = phase.with_cpu_dop(dop, affinity)
                for stage in resized.stages:
                    validate_stage_placement(
                        stage, len(self.server.cores), len(self.server.gpus)
                    )
                wave[position] = resized

    def _abort_wave(self, runs: list["_PhaseRun"]) -> None:
        """Tear down a wave the query will never finish.

        A failed query leaves sibling processes parked on queues that
        will never close, holding staging slots from the *shared* block
        arenas.  Interrupt every survivor so it cannot resume (and
        double-release), then reclaim the mem-move's outstanding staging
        slots — once immediately (covers teardown after the simulator
        drained) and once more after the interrupts have landed (covers
        a consumer that was already scheduled to resume at this instant
        and staged one more block before dying).  No-op for a wave that
        completed cleanly.
        """
        for run in runs:
            for proc in run.processes:
                if proc.is_alive:
                    proc.interrupt("query aborted")
            run.mem_move.abort_outstanding()
            self.sim._schedule_call(MemMove.abort_outstanding, run.mem_move)

    def checkpoints_remaining(self, query_id: str) -> Optional[int]:
        """Phase boundaries the running query has yet to cross.

        Zero for a query in its final wave — a preemption request can
        never fire for it.  ``None`` for a query not inside
        ``execute_process`` at all (e.g. an admitted query still paying
        compile latency); callers that know the plan can fall back to
        its planned boundary count (``len(waves) - 1``), since every
        boundary is still ahead of a query that has not started.
        """
        return self._checkpoints_ahead.get(query_id)

    @staticmethod
    def planned_checkpoints(plan: HetPlan) -> int:
        """Phase boundaries a plan will cross: one per dependency-wave
        gap (a single-wave plan has none and can never be preempted)."""
        return max(0, len(Executor._waves(plan)) - 1)

    def describe_stall(self, query_id: str) -> str:
        """Human-readable report of a query's never-finished processes."""
        runs = self._active.get(query_id, [])
        for run in runs:
            stuck = [p.name for p in run.processes if not p.triggered]
            if stuck:
                return (
                    f"phase {run.phase.name!r} deadlocked; process "
                    f"{stuck[0]} never finished"
                )
        return f"query {query_id} deadlocked; no process report available"

    @staticmethod
    def _waves(plan: HetPlan) -> list[list[Phase]]:
        """Group phases into dependency levels.

        Hash-join build phases over independent dimensions have no mutual
        dependencies and run concurrently (as the paper's plans do); a
        phase consuming a hash table runs strictly after its producer.
        """
        level_of_ht: dict[str, int] = {}
        waves: dict[int, list[Phase]] = {}
        for phase in plan.phases:
            level = 0
            for ht in phase.consumes_ht:
                if ht in level_of_ht:
                    level = max(level, level_of_ht[ht] + 1)
            if phase.produces_ht is not None:
                level_of_ht[phase.produces_ht] = level
            waves.setdefault(level, []).append(phase)
        return [waves[level] for level in sorted(waves)]

    # -- helpers ----------------------------------------------------------------

    def _instances_for(
        self,
        stage: Stage,
        pipelines: dict[int, CompiledPipeline],
        query_state: QueryState,
        config: ExecutionConfig,
    ) -> list[_Instance]:
        pipeline = pipelines[stage.stage_id]
        instances = []
        for index in range(stage.dop):
            if stage.device is DeviceType.CPU:
                core_id = stage.affinity[index] if stage.affinity else index
                core = self.server.cores[core_id]
                node = self.server.dram_node(core.socket_id).node_id
                domain = "cpu"
                unit = core_id
            else:
                gpu_id = stage.affinity[index] if stage.affinity else index
                gpu = self.server.gpus[gpu_id]
                node = gpu.memory.node_id
                domain = f"gpu:{gpu_id}"
                unit = gpu_id
            state = pipeline.new_state(query_state, domain, config.block_tuples)
            instances.append(
                _Instance(stage, index, stage.device, unit, node, domain, state)
            )
        return instances

    def _create_hash_tables(
        self,
        phase: Phase,
        query_state: QueryState,
        instance_map: dict[int, list[_Instance]],
    ) -> list[tuple[str, str, float]]:
        """Pre-create the hash-table domains a build phase fills."""
        created: list[tuple[str, str, float]] = []
        if phase.produces_ht is None:
            return created
        source = phase.source_stages()[0]
        expected = self.catalog.table(source.source.table).num_rows
        scale = self.catalog.logical_scale(source.source.table)
        for stage in phase.stages:
            sink = stage.ops[-1]
            if not isinstance(sink, OpBuildSink):
                continue
            domains = {inst.domain for inst in instance_map[stage.stage_id]}
            for domain in domains:
                query_state.create_hash_table(
                    sink.ht_id, domain, expected, list(sink.payload)
                )
                created.append((sink.ht_id, domain, scale))
        return created

    def _account_hash_tables(
        self,
        created: list[tuple[str, str, float]],
        query_state: QueryState,
        state_handles: list[tuple[MemoryManager, int]],
    ) -> None:
        """Charge built tables against device memory (logical bytes)."""
        from ..memory.managers import OutOfDeviceMemory

        for ht_id, domain, scale in created:
            table = query_state.hash_table(ht_id, domain)
            node_id = "cpu:0" if domain == "cpu" else domain
            manager = self.memory_managers[node_id]
            cache = (
                self.server.spec.cpu_llc_bytes
                if domain == "cpu"
                else self.server.spec.gpu_cache_bytes
            )
            # Cache residency is judged by the table's *capacity*: the
            # engine sizes buckets from the dimension's cardinality before
            # the build filter's true selectivity is known, so a filtered
            # build over a large dimension still spills.  Memory accounting
            # uses the live content (what actually occupies device memory).
            query_state.spilled[(ht_id, domain)] = table.nbytes * scale > cache
            try:
                handle = manager.allocate(
                    table.content_nbytes * scale, label=f"{ht_id}@{domain}"
                )
            except OutOfDeviceMemory as err:
                raise QueryError(
                    f"hash table {ht_id} does not fit on {node_id}: {err}"
                ) from err
            state_handles.append((manager, handle))

    # -- phase runner -----------------------------------------------------------

    def _setup_phase(
        self,
        phase: Phase,
        config: ExecutionConfig,
        pipelines: dict[int, CompiledPipeline],
        query_state: QueryState,
        out: RawExecution,
        first_wave: bool = True,
        query_id: str = "q0",
    ) -> "_PhaseRun":
        instance_map: dict[int, list[_Instance]] = {}
        for stage in phase.stages:
            if not stage.is_source:
                instance_map[stage.stage_id] = self._instances_for(
                    stage, pipelines, query_state, config
                )
        created_tables = self._create_hash_tables(phase, query_state, instance_map)

        faults = self.fault_injector
        mem_move = MemMove(
            self.sim,
            self.server,
            self.blocks,
            self.cost,
            prefetch_depth=config.prefetch_depth,
            straggler=(faults.straggler_factor if faults is not None else None),
            dma_timeout=(faults.transfer_timeout if faults is not None else None),
        )
        # Routers: one per producer stage with outgoing edges.  Each group's
        # hooks bind the mem-move, the cost model, the edge and nodes, never
        # a group, router or instance, so the phase leaves no cycle.
        routers: dict[int, Router] = {}
        edge_of_consumer: dict[int, ExchangeEdge] = {}
        for stage in phase.stages:
            edges = phase.edges_from(stage)
            if not edges:
                continue
            groups = []
            for edge in edges:
                consumer = edge.consumer
                nodes = [i.node_id for i in instance_map[consumer.stage_id]]
                price = partial(_block_price, self.cost, consumer.device, nodes, {})
                in_place = None
                if consumer.device is DeviceType.CPU:
                    # A CPU worker reads a block in place unless the
                    # mem-move says it must move.
                    in_place = partial(_reads_in_place, mem_move, edge, nodes[0])
                groups.append(
                    ConsumerGroup(
                        stage=consumer,
                        instance_nodes=nodes,
                        # Locality-first instance selection: equal queue
                        # loads break toward the socket/GPU where the block
                        # is resident or cheapest to deliver.
                        transfer_cost=mem_move.projected_cost,
                        block_price=price,
                        reads_in_place=in_place,
                    )
                )
                edge_of_consumer[consumer.stage_id] = edge
            policy = edges[0].policy
            broadcast = edges[0].broadcast
            routers[stage.stage_id] = Router(
                self.sim,
                stage,
                groups,
                policy,
                broadcast=broadcast,
                name=f"router-{phase.name}-{stage.name}",
                query_id=query_id,
            )

        processes = []

        # Router init + thread pinning (~10 ms): all of a query's routers
        # initialise concurrently when execution starts, so only the first
        # wave pays it; 'bare' configurations skip HetExchange entirely.
        init_delay = 0.0
        if routers and not config.bare and first_wave:
            init_delay = self.cost.router_init_seconds

        for router in routers.values():
            processes.append(self.sim.process(router.run(), name=router.name))

        phase_outputs: list[dict[str, np.ndarray]] = []

        for stage in phase.stages:
            router = routers.get(stage.stage_id)
            if stage.is_source:
                processes.append(
                    self.sim.process(
                        self._source_proc(stage, router, config, init_delay),
                        name=f"{query_id}:source-{stage.name}",
                    )
                )
                continue
            instances = instance_map[stage.stage_id]
            edge = edge_of_consumer[stage.stage_id]
            out_router = routers.get(stage.stage_id)
            tracker = _ProducerTracker(len(instances), out_router)
            in_router = routers[phase.edges_to(stage)[0].producer.stage_id]
            group = next(
                g for g in in_router.groups
                if g.stage.stage_id == stage.stage_id
            )
            gpu2cpu = None
            if stage.device is DeviceType.GPU and out_router is not None:
                gpu2cpu = Gpu2Cpu(
                    self.sim, self.cost, name=f"{query_id}:gpu2cpu-{stage.name}"
                )
                processes.append(
                    self.sim.process(
                        self._gpu2cpu_relay(gpu2cpu, out_router, tracker),
                        name=f"{query_id}:relay-{stage.name}",
                    )
                )
            for instance in instances:
                queue = (
                    group.instance_queues[instance.index]
                    if group.per_instance
                    else group.shared_queue
                )
                overlap = (
                    instance.device is DeviceType.GPU
                    and config.prefetch_depth > 1
                    and edge.mem_move
                )
                if overlap:
                    # GPU instances prefetch ahead so DMA overlaps kernels
                    # (the mem-move producer half runs in the prefetcher,
                    # staging up to prefetch_depth blocks under credit
                    # backpressure).
                    fetched = self.sim.store(
                        capacity=config.prefetch_depth,
                        name=f"{query_id}:fetch-{stage.name}-{instance.index}",
                    )
                    processes.append(
                        self.sim.process(
                            mem_move.prefetch_proc(queue, fetched, instance.node_id),
                            name=f"{query_id}:fetch-{stage.name}-{instance.index}",
                        )
                    )
                    source = fetched
                else:
                    # CPU workers pull straight from the (shared) queue:
                    # NUMA reads need no staging, and eager prefetchers
                    # would skew the morsel distribution across workers.
                    # GPU workers land here too when prefetch_depth=1
                    # (overlap off): they run the mem-move inline, so the
                    # transfer sits on their critical path.
                    source = queue
                processes.append(
                    self.sim.process(
                        self._worker_proc(
                            instance,
                            source,
                            edge,
                            out_router,
                            tracker,
                            gpu2cpu,
                            pipelines,
                            phase_outputs,
                            out,
                            in_router,
                            group,
                            mem_move,
                        ),
                        name=f"{query_id}:worker-{stage.name}-{instance.index}",
                    )
                )

        return _PhaseRun(
            phase=phase,
            processes=processes,
            instance_map=instance_map,
            created_tables=created_tables,
            mem_move=mem_move,
            routers=routers,
            phase_outputs=phase_outputs,
        )

    def _finalize_phase(self, run: "_PhaseRun", query_state: QueryState,
                        out: RawExecution,
                        state_handles: list[tuple[MemoryManager, int]]) -> None:
        phase = run.phase
        self._account_hash_tables(run.created_tables, query_state, state_handles)

        # Gather per-instance partials and accounting.
        for stage in phase.stages:
            if stage.is_source:
                continue
            for instance in run.instance_map[stage.stage_id]:
                sink = stage.ops[-1]
                if isinstance(sink, OpReduceSink):
                    out.reduce_partials.append(instance.state.reduce_partials())
                elif isinstance(sink, OpGroupAggSink):
                    out.group_partials.append(instance.state.groups)
                key = instance.device.value
                agg = out.profile.device_stats.setdefault(key, BlockStats())
                agg.merge(instance.state.stats)
        out.row_blocks.extend(run.phase_outputs)
        stats = run.mem_move.stats()
        out.profile.bytes_transferred += stats["bytes_moved"]
        out.profile.transfers += int(stats["transfers"])
        out.profile.forwards += int(stats["forwards"])
        for router in run.routers.values():
            out.profile.blocks_routed += router.routed_blocks

    # -- processes -----------------------------------------------------------------

    def _source_proc(
        self,
        stage: Stage,
        router: Optional[Router],
        config: ExecutionConfig,
        init_delay: float,
    ):
        """The segmenter: emit every block handle, then close the router."""
        if init_delay:
            yield self.sim.timeout(init_delay)
        segmenter = Segmenter(
            self.catalog,
            stage.source.table,
            stage.source.columns,
            config.block_tuples,
        )
        if router is None:
            raise QueryError(f"source stage {stage.name!r} has no consumers")
        for handle in segmenter:
            yield router.input.put(handle)
        router.input.close()

    def _worker_proc(
        self,
        instance: _Instance,
        fetched: Store,
        edge: ExchangeEdge,
        out_router: Optional[Router],
        tracker: "_ProducerTracker",
        gpu2cpu: Optional[Gpu2Cpu],
        pipelines: dict[int, CompiledPipeline],
        phase_outputs: list,
        out: RawExecution,
        in_router: Router,
        group: ConsumerGroup,
        mem_move: MemMove,
    ):
        on_gpu = instance.device is DeviceType.GPU
        fn = pipelines[instance.stage.stage_id].fn
        state = instance.state
        uva = not edge.mem_move  # bare-GPU UVA reads
        current_scale = 1.0
        while True:
            got = fetched.get()
            yield got
            handle = got.value
            if handle is Store.END:
                break
            current_scale = handle.block.logical_scale
            home = handle.node_id  # the node the router counted it on
            if edge.mem_move and mem_move.needs_move(handle, instance.node_id):
                # CPU pull path: run the mem-move inline (GPU instances had
                # their fetcher do this ahead of time).
                handle = mem_move.schedule(handle, instance.node_id)
            # The pipeline runs before the transfer wait (its time is
            # charged below), so a cold router's calibration block
            # reports its statistics at no simulated cost.  A morsel of a
            # block that already ran charges its share and runs nothing.
            morsels = handle.morsels
            if morsels is not None and morsels.share is not None:
                delta = morsels.share
            else:
                delta = BlockStats()
                outputs = fn(state, handle.block.columns, delta)
                state.stats.merge(delta)
                if in_router.priced and in_router.unit_stats is None:
                    in_router.calibrate(delta)
                if morsels is not None:
                    morsels.outputs = outputs
                    delta = morsels.share = delta.scaled(1.0 / morsels.k)
            if handle.transfer_done is not None:
                yield handle.transfer_done  # mem-move consumer half
            yield from self._charge(instance, handle, delta, uva)
            if on_gpu:
                out.profile.kernels_launched = out.profile.kernels_launched + 1
            if handle.transfer_done is not None:
                # the transfer held a staging slot; return it via the
                # mem-move (never blocks.release directly): the slot may
                # already have been reclaimed by an abort, and
                # release_staged absorbs that race
                mem_move.release_staged(instance.node_id)
            in_router.report_done(group, instance.index, home)
            if morsels is not None:
                outputs = morsels.finish()
            yield from self._emit(
                outputs, instance, out_router, gpu2cpu, phase_outputs, current_scale
            )
        # End of stream: flush pack buffers, emit, then sign off.
        flushed = []
        if state.packer.buffered:
            flushed.extend(state.packer.flush())
        if state.hash_packer is not None:
            flushed.extend(state.hash_packer.flush())
        yield from self._emit(
            flushed, instance, out_router, gpu2cpu, phase_outputs, current_scale
        )
        if gpu2cpu is not None:
            yield gpu2cpu.send(Store.END)
        else:
            tracker.done()

    def _charge(self, instance: _Instance, handle: BlockHandle,
                delta: BlockStats, uva: bool):
        """Convert a block's stats into simulated resource demands."""
        scale = handle.block.logical_scale
        if instance.device is DeviceType.CPU:
            req = self.cost.cpu_block_work(delta, scale)
            # Streamed reads hit the data's home socket (NUMA); local
            # blocks hit the instance's own socket.
            home = handle.node_id
            node = self.server.memory_nodes.get(home)
            if node is None or node.kind is not DeviceType.CPU:
                node = self.server.memory_nodes[instance.node_id]
            job = node.bandwidth.submit(
                req.work_bytes,
                rate_cap=req.rate_cap,
                label=("cpu-work:{}", instance.stage.name),
            )
            yield job
            return
        req = self.cost.gpu_block_work(delta, scale)
        gpu = self.server.gpus[instance.unit]
        if uva and handle.node_id != instance.node_id:
            # Without HetExchange the kernel reads host memory through UVA:
            # the *streamed input* crosses the direct interconnect route
            # (remote-socket reads pay the peer-DMA cap, exactly as a
            # mem-move on the same route would) while the kernel's
            # device-memory traffic (hash probes, intermediates) proceeds
            # at HBM speed; the block completes when both are done.
            plan = self.cost.transfer_plan(delta.bytes_in, scale=scale)
            path = self.server.paths_between(handle.node_id, instance.node_id)[0]
            cap = self.cost.path_rate_cap(path)
            jobs = path_transfer_jobs(path, plan.nbytes, cap, label="uva")
            launch = self.sim.process(cpu2gpu(self.sim, gpu, req), name="kernel-uva")
            jobs.append(launch)
            yield self.sim.all_of(jobs)
            return
        yield from cpu2gpu(self.sim, gpu, req)

    def _emit(
        self,
        outputs,
        instance: _Instance,
        out_router: Optional[Router],
        gpu2cpu: Optional[Gpu2Cpu],
        phase_outputs: list,
        scale: float = 1.0,
    ):
        """Forward a pipeline invocation's outputs downstream."""
        if not outputs:
            return
        for item in outputs:
            hash_value = None
            if isinstance(item, tuple):
                hash_value, arrays = item
            else:
                arrays = item
            if out_router is None:
                phase_outputs.append(arrays)
                continue
            block = Block(arrays, instance.node_id, scale)
            handle = BlockHandle(block, hash_value=hash_value)
            if gpu2cpu is not None:
                yield gpu2cpu.send(handle)
            else:
                yield out_router.input.put(handle)

    def _gpu2cpu_relay(
        self, gpu2cpu: Gpu2Cpu, out_router: Router, tracker: "_ProducerTracker"
    ):
        """CPU half of gpu2cpu: receive tasks, hand them to the router."""
        while tracker.remaining:
            item = yield from gpu2cpu.receive()
            if item is Store.END:
                tracker.done()
            else:
                yield out_router.input.put(item)


def _block_price(
    cost: CostModel,
    device: DeviceType,
    instance_nodes: list[str],
    memo: dict,
    handle: BlockHandle,
    unit_stats: BlockStats,
) -> BlockPrice:
    """A group's ``block_price`` hook: the cost model's price of
    ``handle`` at the router's per-tuple work ``unit_stats``
    (:meth:`CostModel.block_price`) on one ``device`` instance, with wire
    time when a GPU group's ``instance_nodes`` hold none of the block's
    node.  A router's blocks carry one column set and its ``unit_stats``
    are set once, so ``memo`` keeps one price per row count, scale and
    node (the router asks again after every wake-up)."""
    block = handle.block
    rows, scale, node = key = (block.num_tuples, block.logical_scale, block.node_id)
    price = memo.get(key)
    if price is None:
        wire = None
        if device is DeviceType.GPU and node not in instance_nodes:
            wire = block.nbytes
        stats = unit_stats.scaled(rows)
        price = memo[key] = cost.block_price(stats, device, scale, wire)
    return price


def _reads_in_place(
    mem_move: MemMove, edge: ExchangeEdge, node_id: str, handle: BlockHandle
) -> bool:
    """A CPU group's ``reads_in_place`` hook: ``handle`` is not in transfer
    and a worker on ``node_id`` needs none (:meth:`MemMove.needs_move`)."""
    return handle.transfer_done is None and not (
        edge.mem_move and mem_move.needs_move(handle, node_id)
    )


class _ProducerTracker:
    """Closes a downstream router's input once all producers finished."""

    def __init__(self, producers: int, router: Optional[Router]):
        self.remaining = producers
        self.router = router

    def done(self) -> None:
        self.remaining -= 1
        if self.remaining == 0 and self.router is not None:
            self.router.input.close()
