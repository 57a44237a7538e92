"""Relational algebra: expressions, logical plans, physical stage DAGs."""

from .expressions import (
    Arithmetic,
    Between,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    Not,
    OpCounts,
    UnboundStringComparison,
    bind_strings,
    col,
    lit,
)
from .logical import (
    AggSpec,
    LogicalFilter,
    LogicalGroupBy,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalReduce,
    LogicalScan,
    OrderSpec,
    Plan,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    scan,
)
from .physical import (
    CollectSpec,
    ExchangeEdge,
    HetPlan,
    OpBuildSink,
    OpFilter,
    OpGroupAggSink,
    OpHashPackSink,
    OpPackSink,
    OpProbe,
    OpProject,
    OpReduceSink,
    OpUnpack,
    Phase,
    PipelineOp,
    PlanValidationError,
    RouterPolicy,
    SegmentSource,
    Stage,
    validate_stage_graph,
)
from .placer import HeterogeneousPlacer, PlacementError

__all__ = [
    # expressions
    "Expression", "ColumnRef", "Literal", "Arithmetic", "Comparison",
    "BooleanOp", "Not", "Between", "InList", "col", "lit", "OpCounts",
    "bind_strings", "UnboundStringComparison",
    # logical
    "Plan", "scan", "AggSpec", "OrderSpec", "agg_sum", "agg_count",
    "agg_min", "agg_max", "LogicalNode", "LogicalScan", "LogicalFilter",
    "LogicalProject", "LogicalJoin", "LogicalGroupBy", "LogicalReduce",
    # physical
    "PipelineOp", "OpUnpack", "OpFilter", "OpProject", "OpProbe",
    "OpBuildSink", "OpReduceSink", "OpGroupAggSink", "OpPackSink",
    "OpHashPackSink", "SegmentSource", "RouterPolicy", "Stage",
    "ExchangeEdge", "Phase", "HetPlan", "CollectSpec",
    "validate_stage_graph", "PlanValidationError",
    # placer
    "HeterogeneousPlacer", "PlacementError",
]
