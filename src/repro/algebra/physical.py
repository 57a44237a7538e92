"""Heterogeneity-aware physical plans: pipeline ops, stages, edges, phases.

"Query execution on heterogeneous hardware has four fundamental traits:
target device, degree of parallelism, data locality and data packing.  Each
of the four operators of the HetExchange framework changes one of these
traits on its output, without modifying its input" (paper Section 3.3):
device-crossing operators convert the **device** trait, the router the
**degree of parallelism**, mem-move the **locality**, pack/unpack the
**packing**.  Relational operators require their input *local* and
*unpacked*.  The traits are not a separate vector object here: device, dop
and affinity are :class:`Stage` fields, locality and packing are implied
by an edge's ``mem_move`` and a stage's unpack/pack ops, and
:func:`validate_stage_graph` enforces the invariants on every plan the
placer produces.

A heterogeneity-aware plan (Figure 1e / Figure 2b of the paper) is a DAG of
**stages** connected by **exchange edges**:

* a :class:`Stage` is one JIT-compiled pipeline template — the fusion of
  the relational operators between two pipeline breakers.  It carries the
  HetExchange traits: target *device*, *degree of parallelism* (number of
  instances the controlling router creates) and the *affinity* of each
  instance;
* an :class:`ExchangeEdge` is the HetExchange machinery between two stages:
  a router policy (control flow), an optional mem-move (data flow) and the
  implied device crossing.  Edges move **block handles** only;
* a :class:`Phase` is a set of stages that runs to completion before
  dependent phases start: hash-join build sides are phases that precede
  their probe phase (a hash-table build is a full pipeline breaker).

Pipeline bodies are sequences of :class:`PipelineOp`; the JIT
(:mod:`repro.jit.codegen`) fuses each stage's ops into one generated
function, specialised by the stage's device provider.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from ..hardware.topology import DeviceType
from .expressions import Expression
from .logical import AggSpec, OrderSpec

__all__ = [
    "PipelineOp",
    "OpUnpack",
    "OpFilter",
    "OpProject",
    "OpProbe",
    "OpBuildSink",
    "OpReduceSink",
    "OpGroupAggSink",
    "OpPackSink",
    "OpHashPackSink",
    "SegmentSource",
    "RouterPolicy",
    "Stage",
    "ExchangeEdge",
    "Phase",
    "HetPlan",
    "CollectSpec",
    "validate_stage_graph",
    "validate_placement",
    "validate_stage_placement",
    "PlanValidationError",
]

_stage_ids = itertools.count()


# ---------------------------------------------------------------------------
# Pipeline operators (the relational ops fused into generated code)
# ---------------------------------------------------------------------------


class PipelineOp:
    """Base class for operators that fuse into a pipeline body."""

    #: whether this op terminates the pipeline (materialising sink)
    is_sink = False


@dataclass
class OpUnpack(PipelineOp):
    """Block -> tuple stream; first op of every non-source pipeline.

    The unpack op "takes a block of tuples as input and feeds them one
    tuple at a time to the next operator"; in generated code it binds the
    block's column arrays to local names and charges the scan cost.
    """

    columns: list[str]


@dataclass
class OpFilter(PipelineOp):
    predicate: Expression


@dataclass
class OpProject(PipelineOp):
    #: (alias, expression) pairs evaluated over the current tuple stream
    exprs: list[tuple[str, Expression]]


@dataclass
class OpProbe(PipelineOp):
    """Hash-join probe against the table built by ``ht_id``'s build phase."""

    ht_id: str
    probe_key: str
    #: build-side payload columns appended to the tuple stream
    payload: list[str]


@dataclass
class OpBuildSink(PipelineOp):
    """Hash-join build: materialise key+payload into a shared hash table."""

    ht_id: str
    build_key: str
    payload: list[str]
    is_sink = True


@dataclass
class OpReduceSink(PipelineOp):
    """Ungrouped partial aggregation into per-instance accumulators."""

    aggs: list[AggSpec]
    is_sink = True


@dataclass
class OpGroupAggSink(PipelineOp):
    """Grouped partial aggregation into a per-instance hash table."""

    keys: list[str]
    aggs: list[AggSpec]
    is_sink = True


@dataclass
class OpPackSink(PipelineOp):
    """Tuple stream -> blocks: materialise the named columns into a block.

    'The pack operator groups tuples into a block and flushes it to the
    next operator whenever it fills up.'
    """

    columns: list[str]
    is_sink = True


@dataclass
class OpHashPackSink(PipelineOp):
    """Pack maintaining the hash invariant: one block per hash value.

    Every emitted block carries the hash value of all its tuples, so a
    downstream hash router routes on the handle without touching data.
    """

    key: str
    partitions: int
    columns: list[str]
    is_sink = True


# ---------------------------------------------------------------------------
# Sources, stages, edges
# ---------------------------------------------------------------------------


@dataclass
class SegmentSource:
    """Leaf input: the segmenter iterating a table's placed segments."""

    table: str
    columns: list[str]


class RouterPolicy:
    """Routing policies of the router operator (paper Section 3.1)."""

    #: pull-based load balancing (earliest expected finish, priced from
    #: the cost model until measured rates exist); the paper's
    #: router "routes partitions to consumers, while load-balancing"
    LOAD_BALANCE = "load-balance"
    #: route on the block handle's hash value (set by hash-pack)
    HASH = "hash"
    #: merge many producers into fewer consumers
    UNION = "union"
    #: route on the handle's broadcast target id (set by mem-move multicast)
    TARGET = "target"

    ALL = (LOAD_BALANCE, HASH, UNION, TARGET)


@dataclass
class Stage:
    """One pipeline template plus its parallelism traits."""

    name: str
    device: DeviceType
    ops: list[PipelineOp]
    source: Optional[SegmentSource] = None
    dop: int = 1
    #: device indices the router pins instances to (core ids or gpu ids);
    #: empty means "let the executor choose"
    affinity: list[int] = field(default_factory=list)
    stage_id: int = field(default_factory=lambda: next(_stage_ids))

    def __post_init__(self):
        if not self.ops:
            raise PlanValidationError(f"stage {self.name!r} has no ops")

    @property
    def sink(self) -> PipelineOp:
        return self.ops[-1]

    @property
    def is_source(self) -> bool:
        return self.source is not None

    def with_dop(self, dop: int, affinity: Optional[list[int]] = None) -> "Stage":
        """Re-derive this stage at a different degree of parallelism.

        The pipeline template (ops, device, name) and the ``stage_id``
        are shared with the original: dop and affinity never reach the
        generated code, so the structural cache signature — and any
        compiled pipeline keyed by it, or held in a per-query pipelines
        map keyed by stage id — still applies to the resized stage.
        Only the parallelism traits are replaced.
        """
        if dop < 1:
            raise PlanValidationError(
                f"stage {self.name!r} cannot be resized to dop {dop}"
            )
        if affinity and len(affinity) != dop:
            raise PlanValidationError(
                f"stage {self.name!r} resized to dop {dop} with "
                f"{len(affinity)} affinity entries"
            )
        # replace() keeps stage_id and every other field (present or
        # added later) — only the parallelism traits change
        return replace(
            self, dop=dop, affinity=list(affinity) if affinity else []
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = type(self.sink).__name__
        return (
            f"<Stage {self.name} dev={self.device.value} dop={self.dop} "
            f"sink={kind}>"
        )


@dataclass
class ExchangeEdge:
    """HetExchange plumbing between a producer and a consumer stage."""

    producer: Stage
    consumer: Stage
    policy: str = RouterPolicy.LOAD_BALANCE
    #: insert a mem-move to fix locality on the consumer side
    mem_move: bool = True
    #: mem-move multicast: replicate each block to every consumer instance
    broadcast: bool = False

    def __post_init__(self):
        if self.policy not in RouterPolicy.ALL:
            raise PlanValidationError(f"unknown router policy {self.policy!r}")

    @property
    def crosses_device(self) -> bool:
        return self.producer.device is not self.consumer.device

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Edge {self.producer.name} -> {self.consumer.name} "
            f"policy={self.policy}{' bcast' if self.broadcast else ''}>"
        )


@dataclass
class Phase:
    """Stages + edges that run to completion as a unit.

    ``produces_ht`` names the hash table this phase's build sink fills;
    phases naming a hash table must complete before phases whose probes
    reference it (the executor enforces the ordering).
    """

    name: str
    stages: list[Stage]
    edges: list[ExchangeEdge]
    produces_ht: Optional[str] = None
    #: hash tables this phase's probes consume
    consumes_ht: list[str] = field(default_factory=list)

    def source_stages(self) -> list[Stage]:
        return [s for s in self.stages if s.is_source]

    def edges_from(self, stage: Stage) -> list[ExchangeEdge]:
        return [e for e in self.edges if e.producer.stage_id == stage.stage_id]

    def edges_to(self, stage: Stage) -> list[ExchangeEdge]:
        return [e for e in self.edges if e.consumer.stage_id == stage.stage_id]

    def with_cpu_dop(self, dop: int, affinity: Optional[list[int]] = None) -> "Phase":
        """Re-derive this phase with every CPU consumer stage resized.

        Source stages (segmenters) and GPU stages are untouched: a GPU
        stage's dop is pinned to the per-device hash-table domains built
        by earlier phases, so only the CPU worker set is elastic.  Edges
        are rebuilt to reference the resized stage objects; returns
        ``self`` unchanged when the phase has no CPU consumer stage.
        """
        mapping: dict[int, Stage] = {}
        stages: list[Stage] = []
        for stage in self.stages:
            if stage.device is DeviceType.CPU and not stage.is_source:
                resized = stage.with_dop(dop, affinity)
                mapping[stage.stage_id] = resized
                stages.append(resized)
            else:
                stages.append(stage)
        if not mapping:
            return self
        edges = [
            replace(
                edge,
                producer=mapping.get(edge.producer.stage_id, edge.producer),
                consumer=mapping.get(edge.consumer.stage_id, edge.consumer),
            )
            for edge in self.edges
        ]
        # replace() keeps every other field, present or added later
        return replace(self, stages=stages, edges=edges)


@dataclass
class CollectSpec:
    """Final result shaping applied on the single collector thread."""

    keys: list[str]
    aggs: list[AggSpec]
    order: list[OrderSpec] = field(default_factory=list)
    limit: Optional[int] = None
    #: True when the query root is an ungrouped reduce
    scalar: bool = False


@dataclass
class HetPlan:
    """A complete heterogeneity-aware plan: ordered phases + collection."""

    phases: list[Phase]
    collect: CollectSpec

    def all_stages(self) -> list[Stage]:
        return [s for p in self.phases for s in p.stages]

    def all_edges(self) -> list[ExchangeEdge]:
        return [e for p in self.phases for e in p.edges]


# ---------------------------------------------------------------------------
# Validation of the paper's trait invariants
# ---------------------------------------------------------------------------


class PlanValidationError(ValueError):
    """A heterogeneity-aware plan violates a HetExchange invariant."""


def validate_stage_graph(plan: HetPlan) -> None:
    """Check the trait invariants of Section 3.3 on a het-aware plan.

    * every stage executes on exactly one device (by construction);
    * relational operators receive **local**, **unpacked** input: every
      cross-device edge must carry a mem-move, and every stage body must
      start with an unpack (or be a source);
    * hash-routed edges require the producer to end in a hash-pack (the
      hash invariant lets the router route on handles);
    * build/probe hash-table references must match across phases;
    * phase ordering: a phase consuming a hash table appears after the
      phase producing it.
    """
    produced: set[str] = set()
    for phase in plan.phases:
        for stage in phase.stages:
            body = stage.ops
            if not stage.is_source and not isinstance(body[0], OpUnpack):
                raise PlanValidationError(
                    f"stage {stage.name!r} consumes blocks but does not start "
                    f"with an unpack; relational ops require unpacked input"
                )
            if not body[-1].is_sink:
                raise PlanValidationError(
                    f"stage {stage.name!r} does not end in a sink op "
                    f"(pipelines must break at a materialisation point)"
                )
            for op in body[:-1]:
                if op.is_sink:
                    raise PlanValidationError(
                        f"stage {stage.name!r} has a sink op before its end"
                    )
            if stage.dop < 1:
                raise PlanValidationError(f"stage {stage.name!r} has dop < 1")
        for edge in phase.edges:
            if edge.crosses_device and not edge.mem_move:
                raise PlanValidationError(
                    f"edge {edge!r} crosses devices without a mem-move; "
                    f"consumer input would not be local"
                )
            if edge.policy == RouterPolicy.HASH and not isinstance(
                edge.producer.sink, OpHashPackSink
            ):
                raise PlanValidationError(
                    f"edge {edge!r} routes by hash but producer sink is "
                    f"{type(edge.producer.sink).__name__}; hash routing "
                    f"requires the hash-pack invariant"
                )
            if edge.consumer.device is DeviceType.GPU and not edge.mem_move:
                raise PlanValidationError(
                    f"edge {edge!r} feeds a GPU stage without a mem-move"
                )
        for op in (op for s in phase.stages for op in s.ops):
            if isinstance(op, OpProbe) and op.ht_id not in produced:
                raise PlanValidationError(
                    f"probe references hash table {op.ht_id!r} before any "
                    f"phase produced it"
                )
        if phase.produces_ht is not None:
            produced.add(phase.produces_ht)


def validate_stage_placement(stage: Stage, num_cores: int, num_gpus: int) -> None:
    """Check one stage's parallelism traits against the server's units.

    The executor pins instance ``i`` to ``affinity[i]`` (or unit ``i``
    when the affinity is empty); an out-of-range dop or affinity entry
    used to surface as a bare ``IndexError`` deep in the instance
    spawner.  Validating here gives callers — in particular an elastic
    controller deciding grow requests — a typed error to clamp against
    instead of a crash mid-execution.
    """
    if stage.is_source:
        return  # segmenters are control-plane only; no instances spawned
    limit = num_cores if stage.device is DeviceType.CPU else num_gpus
    kind = "CPU cores" if stage.device is DeviceType.CPU else "GPUs"
    if stage.affinity:
        if len(stage.affinity) != stage.dop:
            raise PlanValidationError(
                f"stage {stage.name!r} has dop {stage.dop} but "
                f"{len(stage.affinity)} affinity entries"
            )
        bad = [a for a in stage.affinity if a < 0 or a >= limit]
        if bad:
            raise PlanValidationError(
                f"stage {stage.name!r} pins instances to {kind} {bad} but "
                f"the server has only {limit}"
            )
    elif stage.dop > limit:
        raise PlanValidationError(
            f"stage {stage.name!r} requests dop {stage.dop} but the server "
            f"has only {limit} {kind}"
        )


def validate_placement(plan: HetPlan, num_cores: int, num_gpus: int) -> None:
    """Check every stage's dop/affinity against the server's units."""
    for stage in plan.all_stages():
        validate_stage_placement(stage, num_cores, num_gpus)
