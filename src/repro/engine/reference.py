"""Naive reference executor: the correctness oracle for every engine.

Interprets logical plans directly over whole tables with plain NumPy —
no blocks, no pipelines, no codegen, no simulation.  Deliberately an
independent implementation so that agreement with the JIT engines is
meaningful: a join finds each probe key's build row by sorted search or
direct address over the build keys, never a hash table, and a filter or
join selects rows by position (one ``flatnonzero``, then a ``take`` per
column).
"""

from __future__ import annotations

import math

import numpy as np

from ..algebra.expressions import bind_strings
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
)
from ..storage.table import Table

__all__ = ["ReferenceExecutor"]

#: build keys spanning fewer slots than this per row, plus the floor, are
#: looked up by direct address; wider spans by sorted search
_DIRECT_SLOTS_PER_ROW = 4
_DIRECT_SLOTS_FLOOR = 65_536


def _build_row_of(build_keys: np.ndarray, probe_keys: np.ndarray):
    """Each probe key's build row (-1 on a miss); None if a build key repeats."""
    if build_keys.size == 0:
        return np.full(probe_keys.size, -1, dtype=np.int64)
    low, high = int(build_keys.min()), int(build_keys.max())
    span = high - low + 1
    if span < _DIRECT_SLOTS_PER_ROW * build_keys.size + _DIRECT_SLOTS_FLOOR:
        # one slot per key in [low, high], and a last one every miss reads
        slots = np.full(span + 1, -1, dtype=np.int64)
        slots[build_keys - low] = np.arange(build_keys.size)
        if np.count_nonzero(slots >= 0) < build_keys.size:
            return None
        inside = (probe_keys >= low) & (probe_keys <= high)
        return slots.take(np.where(inside, probe_keys - low, span))
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys.take(order)
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        return None
    pos = np.minimum(np.searchsorted(sorted_keys, probe_keys), sorted_keys.size - 1)
    return np.where(sorted_keys.take(pos) == probe_keys, order.take(pos), -1)


class ReferenceExecutor:
    """Interprets logical plans over a dict of tables."""

    def __init__(self, tables: dict[str, Table]):
        self.tables = tables

    # -- binding ------------------------------------------------------------

    def _resolver(self, column: str):
        for table in self.tables.values():
            if column in table.columns:
                return table.columns[column].dictionary
        return None

    def _dictionary_of(self, column: str):
        return self._resolver(column)

    # -- evaluation ------------------------------------------------------------

    def execute(self, plan: Plan) -> list[tuple]:
        """Rows with decoded strings, ordered/limited per the plan."""
        node = plan.root
        if isinstance(node, LogicalReduce):
            env = self._eval(node.child)
            row = tuple(self._reduce_agg(agg, env) for agg in node.aggs)
            rows = [row]
            columns = [a.alias for a in node.aggs]
        elif isinstance(node, LogicalGroupBy):
            rows, columns = self._group_by(node)
        else:
            env = self._eval(node)
            columns = node.output_columns()
            rows = self._decode_rows(env, columns)
        for order in reversed(plan.order):
            index = columns.index(order.name)
            rows = sorted(rows, key=lambda r: r[index], reverse=not order.ascending)
        if plan.limit is not None:
            rows = rows[: plan.limit]
        return rows

    def scalar(self, plan: Plan) -> dict:
        """Alias -> value for an ungrouped reduce plan."""
        node = plan.root
        if not isinstance(node, LogicalReduce):
            raise TypeError("scalar() requires a reduce-rooted plan")
        env = self._eval(node.child)
        return {agg.alias: self._reduce_agg(agg, env) for agg in node.aggs}

    # -- node evaluation --------------------------------------------------------

    def _eval(self, node: LogicalNode) -> dict[str, np.ndarray]:
        if isinstance(node, LogicalScan):
            table = self.tables[node.table]
            return {name: table.column(name).values for name in node.columns}
        if isinstance(node, LogicalFilter):
            env = self._eval(node.child)
            predicate = bind_strings(node.predicate, self._resolver)
            mask = predicate.evaluate(env)
            if np.ndim(mask) == 0:  # a constant predicate: all rows or none
                n = len(next(iter(env.values()))) if env else 0
                rows = np.arange(n if mask else 0)
            else:
                rows = np.flatnonzero(mask)
            return {name: values.take(rows) for name, values in env.items()}
        if isinstance(node, LogicalProject):
            env = self._eval(node.child)
            for alias, expr in node.exprs:
                bound = bind_strings(expr, self._resolver)
                env[alias] = np.asarray(bound.evaluate(env))
            return env
        if isinstance(node, LogicalJoin):
            return self._join(node)
        raise TypeError(f"reference cannot evaluate {type(node).__name__}")

    def _join(self, node: LogicalJoin) -> dict[str, np.ndarray]:
        probe_env = self._eval(node.probe)
        build_env = self._eval(node.build)
        build_keys = np.asarray(build_env[node.build_key], dtype=np.int64)
        probe_keys = np.asarray(probe_env[node.probe_key], dtype=np.int64)
        match = _build_row_of(build_keys, probe_keys)
        if match is None:
            raise ValueError(
                f"duplicate build keys in reference join on {node.build_key!r}"
            )
        rows = np.flatnonzero(match >= 0)
        build_rows = match.take(rows)
        out = {name: values.take(rows) for name, values in probe_env.items()}
        for name in node.payload:
            out[name] = np.asarray(build_env[name]).take(build_rows)
        return out

    # -- aggregation ------------------------------------------------------------

    def _agg_values(self, agg: AggSpec, env: dict[str, np.ndarray]) -> np.ndarray:
        bound = bind_strings(agg.expr, self._resolver)
        return np.asarray(bound.evaluate(env), dtype=np.float64)

    def _reduce_agg(self, agg: AggSpec, env: dict[str, np.ndarray]):
        n = len(next(iter(env.values()))) if env else 0
        if agg.kind == "count":
            return int(n)
        if n == 0:
            return 0.0 if agg.kind == "sum" else None
        values = self._agg_values(agg, env)
        if agg.kind == "sum":
            return float(values.sum())
        if agg.kind == "min":
            return float(values.min())
        return float(values.max())

    def _group_by(self, node: LogicalGroupBy) -> tuple[list[tuple], list[str]]:
        env = self._eval(node.child)
        columns = list(node.keys) + [a.alias for a in node.aggs]
        n = len(next(iter(env.values()))) if env else 0
        if n == 0:
            return [], columns
        key_matrix = np.stack(
            [np.asarray(env[k], dtype=np.int64) for k in node.keys], axis=1
        )
        # np.unique, not jit's group_rows: the oracle shares no resolver with the engine
        uniq, inverse = np.unique(key_matrix, axis=0, return_inverse=True)
        agg_columns = []
        for agg in node.aggs:
            if agg.kind == "count":
                agg_columns.append(np.bincount(inverse, minlength=len(uniq)))
                continue
            values = self._agg_values(agg, env)
            if agg.kind == "sum":
                out = np.zeros(len(uniq))
                np.add.at(out, inverse, values)
            elif agg.kind == "min":
                out = np.full(len(uniq), math.inf)
                np.minimum.at(out, inverse, values)
            else:
                out = np.full(len(uniq), -math.inf)
                np.maximum.at(out, inverse, values)
            agg_columns.append(out)
        dictionaries = [self._dictionary_of(k) for k in node.keys]
        rows = []
        for i in range(len(uniq)):
            key = tuple(
                dictionaries[j].decode(int(uniq[i, j])) if dictionaries[j]
                else int(uniq[i, j])
                for j in range(len(node.keys))
            )
            aggs = tuple(
                int(c[i]) if node.aggs[j].kind == "count" else float(c[i])
                for j, c in enumerate(agg_columns)
            )
            rows.append(key + aggs)
        return rows, columns

    def _decode_rows(self, env: dict[str, np.ndarray], columns: list[str]):
        dictionaries = {name: self._dictionary_of(name) for name in columns}
        n = len(next(iter(env.values()))) if env else 0
        rows = []
        for i in range(n):
            row = []
            for name in columns:
                value = env[name][i]
                if dictionaries[name] is not None:
                    row.append(dictionaries[name].decode(int(value)))
                else:
                    row.append(value.item() if isinstance(value, np.generic) else value)
            rows.append(tuple(row))
        return rows
