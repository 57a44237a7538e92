"""Compiled pipelines and their runtime state.

A :class:`CompiledPipeline` is the product of codegen for one stage: the
generated source, the loaded function, and bookkeeping.  The executor
creates one :class:`PipelineState` per pipeline *instance* (the router's
"pipeline template ... then initializes multiple instances from this
template (i.e., performs state creation for each one)").

State domains: hash tables are shared per *device domain* — a single
table for all CPU workers (they synchronise through cache-coherent
atomics) and a private table per GPU (each GPU builds from its broadcast
copy); see :class:`QueryState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..algebra.logical import AggSpec
from ..core.pack import HashPacker, Packer
from ..hardware.costmodel import BlockStats
from ..hardware.topology import DeviceType
from .hashtable import HashTable

__all__ = [
    "CompiledPipeline",
    "PipelineState",
    "QueryState",
    "Packer",
    "HashPacker",
    "agg_identity",
    "merge_agg",
    "group_rows",
]


def agg_identity(kind: str) -> float:
    """Neutral element per aggregate kind."""
    if kind == "sum":
        return 0.0
    if kind == "count":
        return 0
    if kind == "min":
        return math.inf
    if kind == "max":
        return -math.inf
    raise ValueError(f"unknown aggregate kind {kind!r}")


def merge_agg(kind: str, left, right):
    if kind in ("sum", "count"):
        return left + right
    if kind == "min":
        return min(left, right)
    return max(left, right)


def group_rows(keys_2d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an int64 key matrix and each row's group index.

    The same ``(uniq, inverse)`` as NumPy's row-wise ``unique`` with
    ``return_inverse`` — groups in lexicographic row order, inverse flat
    — from one lexsort instead of a sort over void-viewed rows.
    """
    order = np.lexsort(keys_2d.T[::-1])
    ordered = keys_2d[order]
    # a group starts at the first row and wherever any column changes
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in ordered.T:
        starts[1:] |= column[1:] != column[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


class QueryState:
    """Cross-pipeline shared state for one query execution.

    Exactly one instance exists per executing query; nothing in here is
    shared across queries, which is what makes phase networks re-entrant
    on a shared simulator.  ``query_id`` tags the state (and, through the
    executor, every router and process name) for multi-query debugging.
    """

    def __init__(self, query_id: str = "q0"):
        self.query_id = query_id
        #: (ht_id, domain) -> HashTable; domain is 'cpu' or 'gpu:<k>'
        self.hash_tables: dict[tuple[str, str], HashTable] = {}
        #: (ht_id, domain) -> True when the (logical) table exceeds the
        #: device's cache and probes pay random memory traffic
        self.spilled: dict[tuple[str, str], bool] = {}

    def hash_table(self, ht_id: str, domain: str) -> HashTable:
        try:
            return self.hash_tables[(ht_id, domain)]
        except KeyError:
            raise KeyError(
                f"hash table {ht_id!r} has no instance for domain {domain!r}; "
                f"built domains: {sorted(self.hash_tables)}"
            ) from None

    def create_hash_table(
        self, ht_id: str, domain: str, expected: int, payload_names: list[str]
    ) -> HashTable:
        key = (ht_id, domain)
        if key not in self.hash_tables:
            self.hash_tables[key] = HashTable(expected, payload_names)
        return self.hash_tables[key]


class PipelineState:
    """Per-instance runtime state handed to the generated function.

    Generated code reads/writes the ``acc_<alias>`` attributes (reduce
    sinks), calls :meth:`group_rows` and :meth:`group_update` (group-agg
    sinks), :meth:`hash_table` (probes/builds) and uses :attr:`packer` /
    :attr:`hash_packer` (pack sinks).
    """

    group_rows = staticmethod(group_rows)

    def __init__(
        self,
        query: QueryState,
        domain: str,
        device: DeviceType,
        block_tuples: int,
        reduce_aggs: Optional[list[AggSpec]] = None,
        group_aggs: Optional[list[AggSpec]] = None,
        hash_pack_partitions: Optional[int] = None,
    ):
        self.query = query
        self.domain = domain
        self.device = device
        self.stats = BlockStats()
        self.packer = Packer(block_tuples)
        self.hash_packer = (
            HashPacker(hash_pack_partitions, block_tuples)
            if hash_pack_partitions
            else None
        )
        self.reduce_aggs = list(reduce_aggs or [])
        self.group_aggs = list(group_aggs or [])
        for agg in self.reduce_aggs:
            setattr(self, f"acc_{agg.alias}", agg_identity(agg.kind))
        #: group key tuple -> {alias: value}
        self.groups: dict[tuple, dict[str, Any]] = {}

    # -- hash tables -----------------------------------------------------------

    def hash_table(self, ht_id: str) -> HashTable:
        return self.query.hash_table(ht_id, self.domain)

    def ht_spilled(self, ht_id: str) -> bool:
        """Probe-cost hint: does this hash table spill the device cache?"""
        return self.query.spilled.get((ht_id, self.domain), True)

    # -- grouped aggregation -----------------------------------------------------

    def group_update(self, keys_2d: np.ndarray, agg_arrays: dict[str, np.ndarray]) -> None:
        """Merge per-block partial aggregates into the instance's table.

        ``keys_2d`` holds one row per distinct group in the block;
        ``agg_arrays[alias][i]`` is that group's partial for ``alias``.
        Each group merges once, in block order, from Python scalars
        (``int`` counts, ``float`` otherwise).
        """
        kinds = {agg.alias: agg.kind for agg in self.group_aggs}
        identity = {alias: agg_identity(kind) for alias, kind in kinds.items()}
        columns = []
        for alias, kind in kinds.items():
            dtype = np.int64 if kind == "count" else np.float64
            values = np.asarray(agg_arrays[alias], dtype=dtype).tolist()
            columns.append((alias, kind, values))
        groups = self.groups
        for i, key in enumerate(map(tuple, keys_2d.tolist())):
            row = groups.get(key)
            if row is None:
                row = groups[key] = dict(identity)
            for alias, kind, values in columns:
                row[alias] = merge_agg(kind, row[alias], values[i])

    # -- partial extraction (for the collector) --------------------------------------

    def reduce_partials(self) -> dict[str, Any]:
        return {agg.alias: getattr(self, f"acc_{agg.alias}") for agg in self.reduce_aggs}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PipelineState domain={self.domain}>"


@dataclass
class CompiledPipeline:
    """Output of codegen for one stage on one device provider."""

    name: str
    device: DeviceType
    source: str
    fn: Callable
    #: sink metadata mirrored from the stage, used for state creation
    reduce_aggs: list[AggSpec] = field(default_factory=list)
    group_aggs: list[AggSpec] = field(default_factory=list)
    hash_pack_partitions: Optional[int] = None

    def new_state(
        self, query: QueryState, domain: str, block_tuples: int
    ) -> PipelineState:
        return PipelineState(
            query=query,
            domain=domain,
            device=self.device,
            block_tuples=block_tuples,
            reduce_aggs=self.reduce_aggs,
            group_aggs=self.group_aggs,
            hash_pack_partitions=self.hash_pack_partitions,
        )
