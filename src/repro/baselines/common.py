"""Shared scaffolding for the commercial-baseline proxies.

The paper anonymises its comparison systems as DBMS C (a columnar SIMD
vector-at-a-time CPU engine "similar to MonetDB/X100") and DBMS G (a JIT
GPU engine with a star-join-specific execution strategy).  Sections 6.1
and 6.2 characterise both precisely enough to rebuild behavioural
proxies; this module holds what they share:

* the chassis, :class:`_BaselineEngine`: a private simulated server, a
  catalog, the cost model under the proxy's own tuning, ``register`` and
  the collector tail that turns worker partials into a ``QueryResult``;
* plan introspection: :func:`decompose_star` resolves a star plan once,
  each dimension already split into ``(ops, scan)`` by
  :func:`~repro.algebra.logical.build_side`;
* :func:`fold_block`, the one block-level aggregate fold (grouped or
  scalar) — it updates the partials and nothing device-specific, each
  proxy charges its own compute counter after the call;
* :class:`UnsupportedQueryError` for the capability gaps the paper
  reports (DBMS G cannot evaluate string inequalities — it fails Q2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..algebra.expressions import (
    Arithmetic,
    Between,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Literal,
    Not,
)
from ..algebra.logical import (
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
from ..algebra.physical import CollectSpec
from ..engine.collect import collect_result
from ..engine.results import ExecutionProfile, QueryResult
from ..hardware.costmodel import BlockStats, CostModel, EngineTuning
from ..hardware.sim import Simulator
from ..hardware.specs import ServerSpec
from ..hardware.topology import Server
from ..jit.pipeline import GroupTable, group_rows
from ..storage.catalog import Catalog
from ..storage.table import Placement, Table

__all__ = [
    "UnsupportedQueryError",
    "StarShape",
    "StarJoin",
    "decompose_star",
    "fold_block",
    "has_string_inequality",
]


class UnsupportedQueryError(RuntimeError):
    """The baseline engine cannot execute this query (capability gap)."""


class _BaselineEngine:
    """What both proxies are built on: a private simulated server, a
    catalog, and the shared cost model under the proxy's own ``tuning``."""

    name: str
    tuning: EngineTuning

    def __init__(self, spec: Optional[ServerSpec] = None,
                 segment_rows: int = 1 << 20):
        self.sim = Simulator()
        self.server = Server(self.sim, spec or ServerSpec())
        self.catalog = Catalog(self.server, segment_rows=segment_rows)
        self.cost = CostModel(self.server.spec, self.tuning)

    def register(self, table: Table, placement: Optional[Placement] = None) -> None:
        self.catalog.register(table, placement)

    def _collect(self, plan: Plan, star: "StarShape", partials: list,
                 profile: ExecutionProfile) -> QueryResult:
        """The single-threaded collector over the workers' partials."""
        spec = CollectSpec(keys=star.group_keys, aggs=star.aggs,
                           order=list(plan.order), limit=plan.limit,
                           scalar=star.scalar)
        return collect_result(
            spec,
            partials if star.scalar else [],
            partials if star.group_keys else [],
            [],
            profile,
            self.catalog.dictionary_of,
        )


@dataclass
class StarJoin:
    """One fact->dimension equijoin in a star plan."""

    probe_key: str
    build_key: str
    payload: list[str]
    #: the dimension's filter/project chain in execution order, and its scan
    ops: list[LogicalNode]
    scan: LogicalScan


@dataclass
class StarShape:
    """A star query: fact scan + filters, joins, aggregation."""

    fact: LogicalScan
    fact_ops: list[LogicalNode]  # filters/projects over the fact, in order
    joins: list[StarJoin]
    group_keys: list[str]
    aggs: list[AggSpec]
    scalar: bool


def decompose_star(plan: Plan) -> StarShape:
    """Decompose a plan into star shape; raises for non-star plans."""
    node = plan.root
    keys: list[str] = []
    aggs: list[AggSpec] = []
    scalar = False
    if isinstance(node, LogicalReduce):
        aggs = list(node.aggs)
        scalar = True
        node = node.child
    elif isinstance(node, LogicalGroupBy):
        keys = list(node.keys)
        aggs = list(node.aggs)
        node = node.child
    joins: list[StarJoin] = []
    fact_ops: list[LogicalNode] = []
    while not isinstance(node, LogicalScan):
        if isinstance(node, LogicalJoin):
            try:
                ops, dimension = build_side(node.build)
            except ValueError as err:
                raise UnsupportedQueryError(str(err)) from None
            joins.append(
                StarJoin(node.probe_key, node.build_key, list(node.payload),
                         ops, dimension)
            )
            node = node.probe
        elif isinstance(node, (LogicalFilter, LogicalProject)):
            fact_ops.append(node)
            node = node.child
        else:
            raise UnsupportedQueryError(
                f"baseline engines only run star plans; found "
                f"{type(node).__name__}"
            )
    joins.reverse()
    fact_ops.reverse()
    return StarShape(fact=node, fact_ops=fact_ops, joins=joins,
                     group_keys=keys, aggs=aggs, scalar=scalar)


def has_string_inequality(expr: Expression, is_string_column: Callable[[str], bool]) -> bool:
    """Detect range/inequality predicates over string columns.

    This is the feature gap behind DBMS G's Q2.2 failure ("DBMS G fails to
    execute Q2.2's string inequalities").  Must run on the *unbound*
    expression (binding rewrites strings into integer codes).
    """
    if isinstance(expr, Comparison):
        inequality = expr.op in ("<", "<=", ">", ">=")
        sides = [expr.left, expr.right]
        for a, b in (sides, sides[::-1]):
            if (
                inequality
                and isinstance(a, ColumnRef)
                and is_string_column(a.name)
                and isinstance(b, Literal)
                and isinstance(b.value, str)
            ):
                return True
        return any(has_string_inequality(s, is_string_column) for s in sides)
    if isinstance(expr, Between):
        if (
            isinstance(expr.operand, ColumnRef)
            and is_string_column(expr.operand.name)
            and isinstance(expr.low, Literal)
            and isinstance(expr.low.value, str)
        ):
            return True
        return any(
            has_string_inequality(e, is_string_column)
            for e in (expr.operand, expr.low, expr.high)
        )
    if isinstance(expr, BooleanOp):
        return has_string_inequality(expr.left, is_string_column) or \
            has_string_inequality(expr.right, is_string_column)
    if isinstance(expr, Not):
        return has_string_inequality(expr.operand, is_string_column)
    if isinstance(expr, Arithmetic):
        return has_string_inequality(expr.left, is_string_column) or \
            has_string_inequality(expr.right, is_string_column)
    if isinstance(expr, InList):
        return has_string_inequality(expr.operand, is_string_column)
    return False


def plan_has_string_inequality(plan: Plan, is_string_column) -> bool:
    """Walk every predicate/projection of a plan for string inequalities."""
    found = False

    def walk(node: LogicalNode) -> None:
        nonlocal found
        if isinstance(node, LogicalFilter):
            found = found or has_string_inequality(node.predicate, is_string_column)
        if isinstance(node, LogicalProject):
            for _, expr in node.exprs:
                found = found or has_string_inequality(expr, is_string_column)
        for child in node.inputs:
            walk(child)

    walk(plan.root)
    return found


def fold_block(group_keys: list[str], bound_aggs, env, n: int, groups: GroupTable,
               scalars: dict, stats: BlockStats) -> None:
    """Fold one block's ``n`` surviving tuples into a worker's partials.

    ``bound_aggs`` is ``(alias, kind, bound expression)`` per aggregate,
    in ``groups.aggs`` order.  Grouped plans group the block with the
    engine's :func:`~repro.jit.pipeline.group_rows`, take each group's
    partials in row order and merge them into ``groups`` by slot, and a
    large group table pays random traffic; scalar plans fold into
    ``scalars``.  The caller charges its own device's compute.
    """
    if n == 0:
        return
    if not group_keys:
        for alias, kind, expr in bound_aggs:
            if kind == "count":
                scalars[alias] += n
            else:
                values = np.asarray(expr.evaluate(env), dtype=np.float64)
                if kind == "sum":
                    scalars[alias] += float(values.sum())
                elif kind == "min":
                    scalars[alias] = min(scalars[alias], float(values.min()))
                else:
                    scalars[alias] = max(scalars[alias], float(values.max()))
        return
    uniq, inv = group_rows(*(env[k] for k in group_keys))
    partials = []
    for alias, kind, expr in bound_aggs:
        if kind == "count":
            partials.append(np.bincount(inv))
            continue
        values = np.asarray(expr.evaluate(env), dtype=np.float64)
        if kind == "sum":
            partials.append(np.bincount(inv, values))
            continue
        agg = np.full(uniq[0].shape[0], np.inf if kind == "min" else -np.inf)
        (np.minimum if kind == "min" else np.maximum).at(agg, inv, values)
        partials.append(agg)
    if groups.update(uniq, partials) > 4096:
        stats.random_accesses += n
        stats.random_bytes += n * 8 * (len(group_keys) + len(bound_aggs))
