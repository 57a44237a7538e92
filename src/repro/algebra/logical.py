"""Logical query plans and the fluent plan-builder DSL.

The engine consumes *plans*, not SQL (the paper's Proteus receives plans
from Apache Calcite, which it treats as an external component; see Section
5).  The DSL mirrors the relational shape of the paper's workloads:
scan -> filter -> (hash) join -> group-by / reduce, with an optional
order-by/limit applied to the (tiny) final result.

Example — SSB Q1.1::

    q = (
        scan("lineorder", ["lo_orderdate", "lo_quantity", "lo_discount",
                           "lo_extendedprice"])
        .filter(col("lo_discount").between(1, 3) & (col("lo_quantity") < 25))
        .join(
            scan("date", ["d_datekey", "d_year"]).filter(col("d_year") == 1993),
            probe_key="lo_orderdate", build_key="d_datekey",
        )
        .reduce([agg_sum(col("lo_extendedprice") * col("lo_discount"),
                         "revenue")])
    )

Joins are single-key equijoins with the *build* side given as a sub-plan —
exactly the shape HetExchange parallelises in the paper (broadcast hash
joins over the SSB dimension tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .expressions import ColumnRef, Expression

__all__ = [
    "LogicalNode",
    "LogicalScan",
    "LogicalFilter",
    "LogicalProject",
    "LogicalJoin",
    "LogicalGroupBy",
    "LogicalReduce",
    "AggSpec",
    "OrderSpec",
    "Plan",
    "scan",
    "build_side",
    "agg_sum",
    "agg_count",
    "agg_min",
    "agg_max",
]


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: kind in {sum, count, min, max}, expression, alias."""

    kind: str
    expr: Expression
    alias: str

    KINDS = ("sum", "count", "min", "max")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown aggregate kind {self.kind!r}; use {self.KINDS}")


def agg_sum(expr: Expression, alias: str) -> AggSpec:
    return AggSpec("sum", expr, alias)


def agg_count(alias: str = "count") -> AggSpec:
    # COUNT(*) — the expression is unused but kept for uniformity.
    return AggSpec("count", ColumnRef("__count__"), alias)


def agg_min(expr: Expression, alias: str) -> AggSpec:
    return AggSpec("min", expr, alias)


def agg_max(expr: Expression, alias: str) -> AggSpec:
    return AggSpec("max", expr, alias)


@dataclass(frozen=True)
class OrderSpec:
    """Result ordering: column name plus direction."""

    name: str
    ascending: bool = True


class LogicalNode:
    """Base class for logical operators; children listed via ``inputs``."""

    @property
    def inputs(self) -> list["LogicalNode"]:
        raise NotImplementedError

    def output_columns(self) -> list[str]:
        """Names of the columns this operator produces."""
        raise NotImplementedError


@dataclass
class LogicalScan(LogicalNode):
    table: str
    columns: list[str]

    @property
    def inputs(self) -> list[LogicalNode]:
        return []

    def output_columns(self) -> list[str]:
        return list(self.columns)


@dataclass
class LogicalFilter(LogicalNode):
    child: LogicalNode
    predicate: Expression

    @property
    def inputs(self) -> list[LogicalNode]:
        return [self.child]

    def output_columns(self) -> list[str]:
        return self.child.output_columns()


@dataclass
class LogicalProject(LogicalNode):
    """Extending projection: adds computed columns to the tuple stream.

    Existing columns remain visible (liveness analysis prunes the unused
    ones at execution time); an alias matching an existing name shadows it.
    """

    child: LogicalNode
    #: (alias, expression) pairs
    exprs: list[tuple[str, Expression]]

    @property
    def inputs(self) -> list[LogicalNode]:
        return [self.child]

    def output_columns(self) -> list[str]:
        base = [c for c in self.child.output_columns()
                if c not in {alias for alias, _ in self.exprs}]
        return base + [alias for alias, _ in self.exprs]


@dataclass
class LogicalJoin(LogicalNode):
    """Single-key equijoin; ``build`` is materialised into a hash table."""

    probe: LogicalNode
    build: LogicalNode
    probe_key: str
    build_key: str
    #: build-side columns carried to the output; ``None`` means all
    #: non-key columns, ``[]`` means the join only filters (semijoin-like)
    payload: Optional[list[str]] = None

    def __post_init__(self):
        build_cols = self.build.output_columns()
        if self.build_key not in build_cols:
            raise ValueError(
                f"build key {self.build_key!r} not among build columns {build_cols}"
            )
        if self.payload is None:
            self.payload = [c for c in build_cols if c != self.build_key]
        missing = [c for c in self.payload if c not in build_cols]
        if missing:
            raise ValueError(f"payload columns {missing} missing from build side")
        if self.probe_key not in self.probe.output_columns():
            raise ValueError(
                f"probe key {self.probe_key!r} not among probe columns "
                f"{self.probe.output_columns()}"
            )

    @property
    def inputs(self) -> list[LogicalNode]:
        return [self.probe, self.build]

    def output_columns(self) -> list[str]:
        return self.probe.output_columns() + list(self.payload)


@dataclass
class LogicalGroupBy(LogicalNode):
    child: LogicalNode
    keys: list[str]
    aggs: list[AggSpec]

    def __post_init__(self):
        cols = set(self.child.output_columns())
        missing = [k for k in self.keys if k not in cols]
        if missing:
            raise ValueError(f"group keys {missing} missing from input {sorted(cols)}")

    @property
    def inputs(self) -> list[LogicalNode]:
        return [self.child]

    def output_columns(self) -> list[str]:
        return list(self.keys) + [a.alias for a in self.aggs]


@dataclass
class LogicalReduce(LogicalNode):
    """Ungrouped (global) aggregation — a single output row."""

    child: LogicalNode
    aggs: list[AggSpec]

    @property
    def inputs(self) -> list[LogicalNode]:
        return [self.child]

    def output_columns(self) -> list[str]:
        return [a.alias for a in self.aggs]


def build_side(node: LogicalNode) -> tuple[list[LogicalNode], LogicalScan]:
    """Split a join's build side into ``(ops, scan)``.

    A build side is a join-free filter/project chain over one (dimension)
    table scan; ``ops`` lists the chain in execution order, the node
    nearest the scan first.  Anything else raises :class:`ValueError`.
    Every consumer of build sides — the placer, the join-order optimizer
    and the baseline proxies — walks them through this one function.
    """
    ops: list[LogicalNode] = []
    while not isinstance(node, LogicalScan):
        if isinstance(node, LogicalJoin):
            raise ValueError(
                "joins inside build sides are not supported; restructure "
                "the plan so the deepest probe side carries the fact table"
            )
        if not isinstance(node, (LogicalFilter, LogicalProject)):
            raise ValueError(
                f"unsupported operator {type(node).__name__} in build side"
            )
        ops.append(node)
        node = node.child
    ops.reverse()
    return ops, node


class Plan:
    """Fluent builder wrapping a :class:`LogicalNode` tree."""

    def __init__(self, root: LogicalNode):
        self.root = root
        self.order: list[OrderSpec] = []
        self.limit: Optional[int] = None

    # -- relational combinators ---------------------------------------------

    def filter(self, predicate: Expression) -> "Plan":
        return Plan(LogicalFilter(self.root, predicate))

    def project(self, exprs: Sequence[tuple[str, Expression]]) -> "Plan":
        return Plan(LogicalProject(self.root, list(exprs)))

    def join(
        self,
        build: "Plan",
        probe_key: str,
        build_key: str,
        payload: Optional[Iterable[str]] = None,
    ) -> "Plan":
        """Hash-join ``self`` (probe side) with ``build`` (build side)."""
        node = LogicalJoin(
            probe=self.root,
            build=build.root,
            probe_key=probe_key,
            build_key=build_key,
            payload=list(payload) if payload is not None else None,
        )
        return Plan(node)

    def groupby(self, keys: Sequence[str], aggs: Sequence[AggSpec]) -> "Plan":
        return Plan(LogicalGroupBy(self.root, list(keys), list(aggs)))

    def reduce(self, aggs: Sequence[AggSpec]) -> "Plan":
        return Plan(LogicalReduce(self.root, list(aggs)))

    # -- result shaping -------------------------------------------------------

    def order_by(self, *specs: OrderSpec | str) -> "Plan":
        plan = Plan(self.root)
        plan.order = [
            spec if isinstance(spec, OrderSpec) else OrderSpec(spec) for spec in specs
        ]
        plan.limit = self.limit
        return plan

    def take(self, n: int) -> "Plan":
        plan = Plan(self.root)
        plan.order = list(self.order)
        plan.limit = n
        return plan

    # -- introspection --------------------------------------------------------

    def output_columns(self) -> list[str]:
        return self.root.output_columns()

    def scans(self) -> list[LogicalScan]:
        """All scan leaves, probe-side first (depth-first)."""
        out: list[LogicalScan] = []

        def walk(node: LogicalNode) -> None:
            if isinstance(node, LogicalScan):
                out.append(node)
            for child in node.inputs:
                walk(child)

        walk(self.root)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Plan({self.root!r})"


def scan(table: str, columns: Sequence[str]) -> Plan:
    """Start a plan from a table scan over the given columns."""
    if not columns:
        raise ValueError("scan needs at least one column")
    return Plan(LogicalScan(table, list(columns)))
