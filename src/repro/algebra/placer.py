"""Heterogeneity-aware plan placement (Figure 1 a->e of the paper).

The placer turns a sequential logical plan into a :class:`HetPlan` for a
given :class:`~repro.engine.config.ExecutionConfig`:

1. string predicates are bound to dictionary codes against the catalog;
2. the plan is decomposed into a *probe chain* (scan -> filters/projects ->
   probes -> aggregation sink) plus one *build sub-plan* per join;
3. every build sub-plan becomes a **build phase**: a segmenter source, a
   broadcast mem-move edge, and one build stage per participating device
   (the paper's broadcast hash join: "HetExchange broadcasts the dimension
   table columns involved in joins to both GPUs"); on the CPU side all
   workers cooperatively build one shared hash table (cache-coherent
   atomics), on the GPU side each device builds a private one;
4. the probe chain becomes the **probe phase**: a segmenter source, a
   load-balancing router edge, a mem-move per consumer, and one probe
   stage per device type with the requested degree of parallelism;
5. affinities are assigned (CPU workers interleaved across sockets, as in
   the paper's scalability experiments).

``bare=True`` configurations skip HetExchange entirely: a single pipeline
instance on one device, the paper's "Without HetExchange" baseline in
Figures 7 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from ..engine.config import ExecutionConfig

from ..hardware.topology import DeviceType, Server
from ..storage.catalog import Catalog
from .expressions import bind_strings
from .logical import (
    AggSpec,
    LogicalFilter,
    LogicalGroupBy,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalReduce,
    LogicalScan,
    Plan,
    build_side,
)
from .physical import (
    CollectSpec,
    ExchangeEdge,
    HetPlan,
    OpBuildSink,
    OpFilter,
    OpGroupAggSink,
    OpPackSink,
    OpProbe,
    OpProject,
    OpReduceSink,
    OpUnpack,
    Phase,
    PipelineOp,
    RouterPolicy,
    SegmentSource,
    Stage,
    validate_placement,
    validate_stage_graph,
)

__all__ = ["HeterogeneousPlacer", "PlacementError", "TransferProfile"]


class PlacementError(ValueError):
    """The logical plan has a shape the placer does not support."""


@dataclass(frozen=True)
class TransferProfile:
    """Topology-routed transfer volumes of one placed plan.

    Produced by :meth:`HeterogeneousPlacer.transfer_profile` from the
    same :meth:`Server.paths_between
    <repro.hardware.topology.Server.paths_between>` enumeration the
    mem-move routes on at runtime, so admission control, elastic
    resizing and placement all price transfers with one model.

    ``pcie_bytes`` is the logical stream volume that crosses PCIe links
    (host-resident sources feeding GPU consumers, broadcast builds
    counted once per receiving GPU); ``qpi_bytes`` is the share of it
    that additionally crosses the inter-socket interconnect because its
    source socket holds none of the target GPUs; ``gpu_streaming`` is
    True when any probe-phase GPU consumer reads host-resident data.
    """

    pcie_bytes: float = 0.0
    qpi_bytes: float = 0.0
    gpu_streaming: bool = False


@dataclass
class _JoinInfo:
    ht_id: str
    node: LogicalJoin
    build_chain: list[PipelineOp]
    build_scan: LogicalScan


@dataclass
class _Decomposition:
    scan: LogicalScan
    #: mid-pipeline ops in execution order (filters/projects/probes)
    chain: list[PipelineOp]
    joins: list[_JoinInfo]
    collect: CollectSpec
    #: sink op for the probe stage (aggregation or row collection)
    sink: PipelineOp


class HeterogeneousPlacer:
    """Rewrites logical plans into heterogeneity-aware stage DAGs."""

    def __init__(self, server: Server, catalog: Catalog,
                 optimize_join_order: bool = True):
        self.server = server
        self.catalog = catalog
        #: probe most-selective dimensions first (see algebra.optimizer)
        self.optimize_join_order = optimize_join_order

    # -- public API -----------------------------------------------------------

    def place(
        self, plan: Plan, config: "ExecutionConfig",
        exclude_devices: Iterable[int] = (),
    ) -> HetPlan:
        """Place ``plan`` under ``config``, minus any excluded GPUs.

        ``exclude_devices`` removes GPU ids from the configuration
        before placement — the scheduler's retry path passes the set of
        dead devices so a re-admitted query can never be placed on one.
        Raises :class:`PlacementError` when the exclusion leaves no
        compute units at all.
        """
        excluded = frozenset(exclude_devices)
        if excluded:
            surviving = tuple(
                gpu for gpu in config.gpu_ids if gpu not in excluded
            )
            if surviving != config.gpu_ids:
                if not surviving and config.cpu_workers == 0:
                    raise PlacementError(
                        f"every GPU of {config.gpu_ids} is excluded "
                        f"({sorted(excluded)}) and the configuration has "
                        f"no CPU workers to fall back to"
                    )
                config = config.derive(gpu_ids=surviving)
        decomposition = self._decompose(plan)
        if config.bare:
            het = self._place_bare(decomposition, config)
        else:
            het = self._place_parallel(decomposition, config)
            validate_stage_graph(het)
        validate_placement(het, len(self.server.cores), len(self.server.gpus))
        return het

    # -- string binding ----------------------------------------------------------

    def _bind_aggs(self, aggs: list[AggSpec]) -> list[AggSpec]:
        resolve = self.catalog.dictionary_of
        return [AggSpec(a.kind, bind_strings(a.expr, resolve), a.alias) for a in aggs]

    def _chain_op(self, node: LogicalNode) -> PipelineOp:
        """The pipeline op of one filter/project node, strings bound."""
        resolve = self.catalog.dictionary_of
        if isinstance(node, LogicalFilter):
            return OpFilter(bind_strings(node.predicate, resolve))
        return OpProject(
            [(alias, bind_strings(e, resolve)) for alias, e in node.exprs]
        )

    # -- decomposition ------------------------------------------------------------

    def _decompose(self, plan: Plan) -> _Decomposition:
        node = plan.root
        keys: list[str] = []
        aggs: list[AggSpec] = []
        scalar = False
        sink: PipelineOp
        if isinstance(node, LogicalReduce):
            aggs = self._bind_aggs(node.aggs)
            sink = OpReduceSink(aggs)
            scalar = True
            node = node.child
        elif isinstance(node, LogicalGroupBy):
            keys = list(node.keys)
            aggs = self._bind_aggs(node.aggs)
            sink = OpGroupAggSink(keys, aggs)
            node = node.child
        else:
            sink = OpPackSink(node.output_columns())

        chain_rev: list[PipelineOp] = []
        joins: list[_JoinInfo] = []
        while not isinstance(node, LogicalScan):
            if isinstance(node, (LogicalFilter, LogicalProject)):
                chain_rev.append(self._chain_op(node))
                node = node.child
            elif isinstance(node, LogicalJoin):
                ht_id = f"ht{len(joins)}"
                build_chain, build_scan = self._decompose_build(node.build, ht_id, node)
                joins.append(_JoinInfo(ht_id, node, build_chain, build_scan))
                chain_rev.append(OpProbe(ht_id, node.probe_key, list(node.payload)))
                node = node.probe
            else:
                raise PlacementError(
                    f"unsupported operator {type(node).__name__} in probe chain"
                )
        chain = list(reversed(chain_rev))
        if self.optimize_join_order and len(joins) > 1:
            from .optimizer import (
                estimate_build_selectivity,
                estimate_probe_cost,
                reorder_probes,
            )

            llc = self.server.spec.cpu_llc_bytes
            rank = {}
            for info in joins:
                selectivity = estimate_build_selectivity(
                    self.catalog, info.node.build
                )
                cost = estimate_probe_cost(
                    self.catalog, info.node.build, info.node.build_key,
                    list(info.node.payload), llc, selectivity=selectivity,
                )
                rank[info.ht_id] = (1.0 - selectivity) / cost
            chain = reorder_probes(chain, rank.__getitem__)
        collect = CollectSpec(keys=keys, aggs=aggs, order=list(plan.order),
                              limit=plan.limit, scalar=scalar)
        return _Decomposition(scan=node, chain=chain, joins=joins,
                              collect=collect, sink=sink)

    def _decompose_build(
        self, node: LogicalNode, ht_id: str, join: LogicalJoin
    ) -> tuple[list[PipelineOp], LogicalScan]:
        """Build sides must be join-free chains (SSB dimension tables)."""
        try:
            ops, scan_node = build_side(node)
        except ValueError as err:
            raise PlacementError(str(err)) from None
        chain = [self._chain_op(op) for op in ops]
        chain.append(OpBuildSink(ht_id, join.build_key, list(join.payload)))
        return chain, scan_node

    # -- transfer model ---------------------------------------------------------

    def transfer_profile(self, het: HetPlan, config: "ExecutionConfig") -> TransferProfile:
        """Price a placed plan's data movement over the interconnect topology.

        Walks every phase's segmenter source against the catalog's
        physical placement: host-resident segments feeding GPU consumers
        cross PCIe (broadcast build phases once per receiving GPU —
        every hash-table domain gets a private copy), and the share
        whose home socket holds none of the receiving GPUs crosses the
        inter-socket interconnect too.  This is the same topology the
        mem-move routes on at runtime
        (:meth:`~repro.hardware.topology.Server.paths_between`), so the
        scheduler's admission demand and the executor's DMA traffic
        price transfers with one model.
        """
        if not config.uses_gpu:
            return TransferProfile()
        gpu_sockets = {
            self.server.gpus[g].socket_id for g in config.gpu_ids
        }
        pcie = 0.0
        qpi = 0.0
        gpu_streaming = False
        for phase in het.phases:
            is_build = phase.produces_ht is not None
            for stage in phase.source_stages():
                table = stage.source.table
                total_rows = self.catalog.table(table).num_rows
                if total_rows == 0:
                    continue
                total_bytes = self.catalog.logical_bytes(
                    table, stage.source.columns
                )
                for segment in self.catalog.placement(table).segments:
                    node = self.server.memory_nodes[segment.node_id]
                    if node.kind is not DeviceType.CPU:
                        # device-resident segments are pinned to their
                        # GPU by the router; no PCIe crossing
                        continue
                    seg_bytes = total_bytes * (segment.num_rows / total_rows)
                    seg_socket = self.server.socket_of(segment.node_id)
                    if is_build:
                        # broadcast: one private copy per GPU domain
                        pcie += seg_bytes * len(config.gpu_ids)
                        qpi += seg_bytes * sum(
                            1 for g in config.gpu_ids
                            if self.server.gpus[g].socket_id != seg_socket
                        )
                    else:
                        gpu_streaming = True
                        pcie += seg_bytes
                        if seg_socket not in gpu_sockets:
                            qpi += seg_bytes
        if not gpu_streaming:
            # GPU-resident probes never stream; builds alone do not hold
            # a PCIe window open for the query's lifetime
            return TransferProfile()
        return TransferProfile(pcie_bytes=pcie, qpi_bytes=qpi,
                               gpu_streaming=True)

    # -- placement: parallel (HetExchange) ------------------------------------------

    def cpu_affinity(self, config: "ExecutionConfig") -> list[int]:
        """Interleave workers across sockets (Figure 6: 'we interleave the
        CPU cores between the two sockets').

        Public because the elastic-dop controller re-derives the
        affinity of a resized CPU worker set with exactly the same
        interleaving the original placement used.
        """
        cores_by_socket = [list(s.cores) for s in self.server.sockets]
        last_index = 4 * sum(len(c) for c in cores_by_socket)
        order: list[int] = []
        index = 0
        while len(order) < config.cpu_workers:
            socket = cores_by_socket[index % len(cores_by_socket)]
            position = index // len(cores_by_socket)
            if position < len(socket):
                order.append(socket[position].core_id)
            index += 1
            if index > last_index:
                break
        if len(order) < config.cpu_workers:
            raise PlacementError(
                f"requested {config.cpu_workers} CPU workers but the server "
                f"has {len(self.server.cores)} cores"
            )
        return order[: config.cpu_workers]

    def _consumer_stages(
        self,
        name: str,
        body: list[PipelineOp],
        config: "ExecutionConfig",
        input_columns: list[str],
    ) -> list[Stage]:
        """One consumer stage per participating device type.

        The router "has multiple parents, each of them targeting different
        devices.  Each router's parent ... is instantiated multiple times to
        achieve the necessary degree of parallelism in each device type."
        """
        stages = []
        ops = [OpUnpack(list(input_columns))] + body
        if config.uses_cpu:
            stages.append(
                Stage(
                    name=f"{name}-cpu",
                    device=DeviceType.CPU,
                    ops=list(ops),
                    dop=config.cpu_workers,
                    affinity=self.cpu_affinity(config),
                )
            )
        if config.uses_gpu:
            for gpu_id in config.gpu_ids:
                if gpu_id >= len(self.server.gpus):
                    raise PlacementError(
                        f"config names GPU {gpu_id} but the server has "
                        f"{len(self.server.gpus)}"
                    )
            stages.append(
                Stage(
                    name=f"{name}-gpu",
                    device=DeviceType.GPU,
                    ops=list(ops),
                    dop=len(config.gpu_ids),
                    affinity=list(config.gpu_ids),
                )
            )
        return stages

    def _place_parallel(self, d: _Decomposition, config: "ExecutionConfig") -> HetPlan:
        phases: list[Phase] = []
        for join in d.joins:
            phases.append(self._build_phase(join, config))
        probe_body = list(d.chain) + [d.sink]
        source = Stage(
            name="segment-probe",
            device=DeviceType.CPU,
            ops=[OpPackSink(list(d.scan.columns))],
            source=SegmentSource(d.scan.table, list(d.scan.columns)),
        )
        consumers = self._consumer_stages("probe", probe_body, config, d.scan.columns)
        edges = [
            ExchangeEdge(source, consumer, policy=RouterPolicy.LOAD_BALANCE,
                         mem_move=True)
            for consumer in consumers
        ]
        phases.append(
            Phase(
                name="probe",
                stages=[source] + consumers,
                edges=edges,
                consumes_ht=[j.ht_id for j in d.joins],
            )
        )
        return HetPlan(phases=phases, collect=d.collect)

    def _build_phase(self, join: _JoinInfo, config: "ExecutionConfig") -> Phase:
        source = Stage(
            name=f"segment-{join.ht_id}",
            device=DeviceType.CPU,
            ops=[OpPackSink(list(join.build_scan.columns))],
            source=SegmentSource(join.build_scan.table, list(join.build_scan.columns)),
        )
        consumers = self._consumer_stages(
            f"build-{join.ht_id}", join.build_chain, config, join.build_scan.columns
        )
        # Broadcast: every hash-table domain (the shared CPU table; each
        # GPU's private table) receives every build block.  mem-move does
        # the multicast, the router routes on the resulting target id.
        edges = [
            ExchangeEdge(source, consumer, policy=RouterPolicy.TARGET,
                         mem_move=True, broadcast=True)
            for consumer in consumers
        ]
        return Phase(
            name=f"build-{join.ht_id}",
            stages=[source] + consumers,
            edges=edges,
            produces_ht=join.ht_id,
        )

    # -- placement: bare (no HetExchange) -----------------------------------------

    def _place_bare(self, d: _Decomposition, config: "ExecutionConfig") -> HetPlan:
        device = DeviceType.GPU if config.uses_gpu else DeviceType.CPU
        affinity = [config.gpu_ids[0]] if config.uses_gpu else [0]
        phases: list[Phase] = []
        for join in d.joins:
            source = Stage(
                name=f"segment-{join.ht_id}",
                device=DeviceType.CPU,
                ops=[OpPackSink(list(join.build_scan.columns))],
                source=SegmentSource(join.build_scan.table, list(join.build_scan.columns)),
            )
            build = Stage(
                name=f"build-{join.ht_id}",
                device=device,
                ops=[OpUnpack(list(join.build_scan.columns))] + join.build_chain,
                dop=1,
                affinity=list(affinity),
            )
            phases.append(
                Phase(
                    name=f"build-{join.ht_id}",
                    stages=[source, build],
                    edges=[ExchangeEdge(source, build, policy=RouterPolicy.UNION,
                                        mem_move=False)],
                    produces_ht=join.ht_id,
                )
            )
        source = Stage(
            name="segment-probe",
            device=DeviceType.CPU,
            ops=[OpPackSink(list(d.scan.columns))],
            source=SegmentSource(d.scan.table, list(d.scan.columns)),
        )
        probe = Stage(
            name="probe",
            device=device,
            ops=[OpUnpack(list(d.scan.columns))] + list(d.chain) + [d.sink],
            dop=1,
            affinity=list(affinity),
        )
        phases.append(
            Phase(
                name="probe",
                stages=[source, probe],
                edges=[ExchangeEdge(source, probe, policy=RouterPolicy.UNION,
                                    mem_move=False)],
                consumes_ht=[j.ht_id for j in d.joins],
            )
        )
        return HetPlan(phases=phases, collect=d.collect)
