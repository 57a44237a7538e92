"""Shared result collection: the single-threaded final-aggregation step.

The paper's plans end with a union router feeding "a single thread in
order to produce a final global aggregation" (pipeline 2 of the running
example).  Proteus and both baseline proxies share this collector so
result semantics (merge rules, string decoding, ordering) are identical
across engines.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping, Optional

import numpy as np

from ..algebra.physical import CollectSpec
from ..jit.pipeline import agg_identity, merge_agg
from .results import ExecutionProfile, QueryResult

__all__ = ["collect_result", "merge_scalar", "merge_groups", "scalar_result"]

DictionaryOf = Callable[[str], Optional[object]]


def collect_result(
    spec: CollectSpec,
    reduce_partials: list[dict[str, Any]],
    group_partials: list[dict[tuple, dict[str, Any]]],
    row_blocks: list[dict[str, np.ndarray]],
    profile: ExecutionProfile,
    dictionary_of: DictionaryOf,
) -> QueryResult:
    if spec.scalar:
        return scalar_result(spec.aggs, reduce_partials, profile)
    if spec.keys or spec.aggs:
        return _collect_groups(spec, group_partials, profile, dictionary_of)
    return _collect_rows(spec, row_blocks, profile, dictionary_of)


def merge_scalar(aggs, partials: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold partial scalar aggregates (alias -> value) into one.

    Each aggregate starts from its identity and folds the partials in
    order with :func:`~repro.jit.pipeline.merge_agg`; a ``count`` ends as
    an ``int`` and a min/max that saw no input as ``None``.  A ``None``
    in a partial is such a finalised empty min/max (a shard's result
    merged again by the fleet) and is skipped.

    The merge is used twice — worker partials into a query result, shard
    results into a fleet result — and byte-identity of the two-level
    merge with a single-server run leans on one contract: on
    integer-valued float64 (every SSB aggregate) addition is exact, so
    merging per worker and then per shard equals merging all at once.
    """
    merged: dict[str, Any] = {agg.alias: agg_identity(agg.kind) for agg in aggs}
    for partial in partials:
        for agg in aggs:
            if partial[agg.alias] is not None:
                merged[agg.alias] = merge_agg(
                    agg.kind, merged[agg.alias], partial[agg.alias]
                )
    for agg in aggs:
        if agg.kind == "count":
            merged[agg.alias] = int(merged[agg.alias])
        elif merged[agg.alias] in (math.inf, -math.inf):
            merged[agg.alias] = None  # min/max over empty input
    return merged


def merge_groups(
    aggs, partials: Iterable[Mapping[tuple, Mapping[str, Any]]]
) -> dict[tuple, dict[str, Any]]:
    """Fold partial group-by aggregates (key -> alias -> value) by key.

    Groups keep first-seen order; a key present in several partials is
    folded with :func:`~repro.jit.pipeline.merge_agg` in partial order
    (same exactness contract as :func:`merge_scalar`).
    """
    merged: dict[tuple, dict[str, Any]] = {}
    for partial in partials:
        for key, values in partial.items():
            row = merged.get(key)
            if row is None:
                merged[key] = dict(values)
            else:
                for agg in aggs:
                    row[agg.alias] = merge_agg(
                        agg.kind, row[agg.alias], values[agg.alias]
                    )
    return merged


def scalar_result(aggs, partials, profile: ExecutionProfile) -> QueryResult:
    """The one-row result of a scalar reduction over ``partials``."""
    merged = merge_scalar(aggs, partials)
    columns = [agg.alias for agg in aggs]
    rows = [tuple(merged[c] for c in columns)]
    return QueryResult(columns=columns, rows=rows, profile=profile, scalar=merged)


def _collect_groups(spec, partials, profile, dictionary_of) -> QueryResult:
    merged = merge_groups(spec.aggs, partials)
    columns = list(spec.keys) + [a.alias for a in spec.aggs]
    dictionaries = {name: dictionary_of(name) for name in spec.keys}
    rows = []
    for key, values in merged.items():
        decoded = tuple(
            dictionaries[name].decode(int(code)) if dictionaries[name] else int(code)
            for name, code in zip(spec.keys, key)
        )
        rows.append(decoded + tuple(values[a.alias] for a in spec.aggs))
    rows = order_rows(rows, columns, spec)
    return QueryResult(columns=columns, rows=rows, profile=profile)


def _collect_rows(spec, row_blocks, profile, dictionary_of) -> QueryResult:
    if not row_blocks:
        return QueryResult(columns=[], rows=[], profile=profile)
    columns = list(row_blocks[0].keys())
    arrays = {name: np.concatenate([b[name] for b in row_blocks]) for name in columns}
    dictionaries = {name: dictionary_of(name) for name in columns}
    rows = []
    for i in range(len(arrays[columns[0]])):
        row = []
        for name in columns:
            value = arrays[name][i]
            if dictionaries[name] is not None:
                row.append(dictionaries[name].decode(int(value)))
            else:
                row.append(value.item() if isinstance(value, np.generic) else value)
        rows.append(tuple(row))
    rows = order_rows(rows, columns, spec)
    return QueryResult(columns=columns, rows=rows, profile=profile)


def order_rows(rows: list[tuple], columns: list[str], spec) -> list[tuple]:
    """Apply the ORDER BY (stable, multi-key) and LIMIT of ``spec`` —
    anything with ``.order`` and ``.limit``: a collect spec or a plan."""
    for order in reversed(spec.order):
        try:
            index = columns.index(order.name)
        except ValueError:
            raise KeyError(
                f"order-by column {order.name!r} not in result columns {columns}"
            ) from None
        rows = sorted(rows, key=lambda r: r[index], reverse=not order.ascending)
    if spec.limit is not None:
        rows = rows[: spec.limit]
    return rows
