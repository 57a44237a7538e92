"""Naive reference executor: the correctness oracle for every engine.

Interprets logical plans directly over whole tables with plain NumPy —
no blocks, no pipelines, no codegen, no simulation.  Deliberately an
independent implementation so that agreement with the JIT engines is
meaningful.  It imports nothing from ``jit``: generated pipelines group
through a lexsort and join through a hash table, and the oracle does
neither.

- **Selection** is by position: a filter or join keeps rows with one
  ``flatnonzero`` and a ``take`` per column.
- **Joins** find each probe key's build row by direct address when the
  build keys span fewer than ``_DIRECT_SLOTS_PER_ROW`` slots per build
  row plus ``_DIRECT_SLOTS_FLOOR``, and by sorted search otherwise.  The
  direct slot array covers ``[low - 1, high + 1]``: one live slot per key
  of the build span and a miss slot (-1) at each end.  A probe is two
  passes, ``take(keys - (low - 1), mode="clip")``.  The subtraction wraps
  modulo 2**64, and a wrapped difference that lands on slot ``i`` came
  from key ``low - 1 + i``, because subtracting a constant is a bijection
  modulo 2**64.  Every key on a live slot is therefore a build key, and
  every key outside the span lands on, or clips to, a miss slot.  The
  shift ``low - 1`` is itself taken modulo 2**64, so a build key at the
  int64 minimum shifts by the int64 maximum and the same argument holds.
- **Grouping** ranks each key column densely with a 1-D ``np.unique`` and
  folds the ranks left to right into one int64 code, first column most
  significant, re-ranking after each fold.  Both factors of a fold are
  below the row count, so a code never overflows for fewer than 3 * 10**9
  rows.  Groups come out in lexicographic key order, as a row-wise
  ``np.unique`` over the key matrix gives them, with the same group per
  row, so ``np.add.at`` sums each group's rows in the same order.  Each
  group's key values are decoded from the folded codes.  One 1-D sort per
  key column and per fold replaces the row-wise sort of opaque records.
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
        shift = (low - 1 + 2**63) % 2**64 - 2**63  # low - 1, modulo 2**64
        slots = np.full(span + 2, -1, dtype=np.int64)
        slots[build_keys - shift] = np.arange(build_keys.size)
        if np.count_nonzero(slots >= 0) < build_keys.size:
            return None
        return slots.take(probe_keys - shift, mode="clip")
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys.take(order)
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        return None
    pos = np.minimum(np.searchsorted(sorted_keys, probe_keys), sorted_keys.size - 1)
    return np.where(sorted_keys.take(pos) == probe_keys, order.take(pos), -1)


def _smallest_repeat(keys: np.ndarray) -> int:
    """The smallest key that occurs more than once (keys must repeat)."""
    ordered = np.sort(keys)
    return int(ordered[np.argmax(ordered[1:] == ordered[:-1])])


def _groups(key_columns: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each row's group and each key column's value per group.

    Groups are numbered in lexicographic order of their key rows.
    """
    code, keys = None, []
    for column in key_columns:
        values, rank = np.unique(column, return_inverse=True)
        if code is None:
            code = rank
        else:
            pairs, code = np.unique(code * values.size + rank, return_inverse=True)
            keys = [k.take(pairs // values.size) for k in keys]
            values = values.take(pairs % values.size)
        keys.append(values)
    return code, keys


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
                f"duplicate build keys in reference join on {node.build_key!r}: "
                f"key {_smallest_repeat(build_keys)} repeats"
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
        inverse, keys = _groups(
            [np.asarray(env[k], dtype=np.int64) for k in node.keys]
        )
        groups = keys[0].size
        agg_columns = []
        for agg in node.aggs:
            if agg.kind == "count":
                agg_columns.append(np.bincount(inverse, minlength=groups))
                continue
            values = self._agg_values(agg, env)
            if agg.kind == "sum":
                out = np.zeros(groups)
                np.add.at(out, inverse, values)
            elif agg.kind == "min":
                out = np.full(groups, math.inf)
                np.minimum.at(out, inverse, values)
            else:
                out = np.full(groups, -math.inf)
                np.maximum.at(out, inverse, values)
            agg_columns.append(out)
        key_lists = []
        for name, values in zip(node.keys, keys):
            dictionary = self._dictionary_of(name)
            values = values.tolist()
            key_lists.append([dictionary.decode(v) for v in values] if dictionary
                             else values)
        rows = list(zip(*key_lists, *(c.tolist() for c in agg_columns)))
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
