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

Grouped aggregation: a group sink hands its key columns, as stored, to
:func:`group_rows`, which folds them into one order-preserving integer
code and groups it without a sort when the code space is small (one
1-D ``np.unique`` otherwise), giving the groups, order and inverse of a
row-wise ``np.unique``.  Per-group sums are one ``np.bincount`` over the
inverse, which adds in row order exactly as ``np.add.at`` does.  A
worker's :class:`GroupTable` merges each block's partials into dense
per-aggregate arrays by slot.  The DBMS C / G proxies group and merge
through the same two.
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
    "GroupTable",
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


#: a block of at most this many rows groups its key tuples in Python.
#: On SSB group keys the two paths break even near 64 rows: rows drawn
#: from the hybrid drive's blocks took 40 vs 72 us at 32 rows, 54 vs 50 us
#: at 64 and 58 vs 44 us at 80 (Python vs vectorised, Xeon, NumPy 2.4)
_PYTHON_ROWS = 64
#: a block groups by presence flags while its key space is at most this
#: many codes per row; a wider one sorts its 1-D codes
_DENSE_CODES_PER_ROW = 4
_INT64_MAX = 2**63 - 1


def group_rows(*columns: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Distinct key rows of ``columns`` and each row's group index.

    The groups, their lexicographic order and the flat inverse of NumPy's
    row-wise ``unique(..., axis=0, return_inverse=True)`` over the
    columns side by side; the groups come back as one int64 array per
    key column.  The columns are read as stored: they fold into one
    order-preserving int64 code, ``(c0 - min0) * span1 + (c1 - min1)``
    and so on, first column most significant.  A code space of at most
    ``_DENSE_CODES_PER_ROW`` codes per row is grouped without a sort:
    presence flags, then a cumulative rank.  A wider one runs one 1-D
    ``np.unique`` on the codes.  Only a fold that would overflow int64
    sorts the rows themselves (:func:`_overflow_groups`).  A block of at
    most ``_PYTHON_ROWS`` rows (most of a GPU's 256-tuple blocks after
    their joins) sorts its distinct key tuples in Python instead.
    """
    columns = [c if c.dtype.kind == "i" else c.astype(np.int64) for c in columns]
    rows = columns[0].shape[0]
    if rows <= _PYTHON_ROWS:
        keys = list(zip(*(column.tolist() for column in columns)))
        groups = sorted(set(keys))
        rank = {key: i for i, key in enumerate(groups)}
        inverse = np.fromiter(map(rank.__getitem__, keys), np.intp, rows)
        return list(np.array(groups, dtype=np.int64).reshape(-1, len(columns)).T), inverse
    lows = [int(c.min()) for c in columns]
    spans = [int(c.max()) - low + 1 for c, low in zip(columns, lows)]
    codes = math.prod(spans)
    if codes > _INT64_MAX:
        return _overflow_groups(columns)
    # int64 arithmetic wraps, so a sum that leaves the type on the way
    # still ends at the right code: every final code is in range
    code = columns[0] - np.int64(lows[0])
    for column, low, span in zip(columns[1:], lows[1:], spans[1:]):
        code *= span
        code += column
        code -= low
    if codes <= _DENSE_CODES_PER_ROW * rows:
        present = np.bincount(code, minlength=codes) > 0
        rank = present.cumsum()
        rank -= 1
        uniq, inverse = np.flatnonzero(present), rank.take(code)
    else:
        uniq, inverse = np.unique(code, return_inverse=True)
    keys = []
    for low, span in zip(lows[:0:-1], spans[:0:-1]):
        uniq, digit = np.divmod(uniq, span)
        keys.append(digit + np.int64(low))
    keys.append(uniq + np.int64(lows[0]))
    return keys[::-1], inverse


def _overflow_groups(columns: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """:func:`group_rows` for keys whose code space exceeds int64: one
    lexsort, and a group starts wherever any column changes."""
    order = np.lexsort(columns[::-1])
    ordered = [c.take(order) for c in columns]
    starts = np.zeros(order.shape[0], dtype=bool)
    starts[0] = True
    for column in ordered:
        starts[1:] |= column[1:] != column[:-1]
    inverse = np.empty(order.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return [c[starts].astype(np.int64) for c in ordered], inverse


class GroupTable:
    """One worker's grouped partial aggregates, a dense slot per group.

    ``slots`` numbers the groups in first-seen order and each aggregate
    keeps one array indexed by slot.  :meth:`update` merges a block's
    per-group partials by slot with one NumPy operation per aggregate:
    sums and counts add (float64 and int64 addition, bit for bit what
    Python's ``+`` does), and min / max keep what Python's ``min`` /
    ``max`` keep, the held value unless the new one is strictly
    smaller / larger.  :meth:`groups` reads the table back as
    ``key -> {alias: value}`` with ``int`` counts and ``float`` otherwise.
    """

    def __init__(self, aggs: list[AggSpec]):
        self.aggs = list(aggs)
        self.slots: dict[tuple, int] = {}
        self._values = [self._fresh(agg.kind, 64) for agg in self.aggs]

    @staticmethod
    def _fresh(kind: str, size: int) -> np.ndarray:
        dtype = np.int64 if kind == "count" else np.float64
        return np.full(size, agg_identity(kind), dtype=dtype)

    def update(self, keys: list[np.ndarray], partials: list[np.ndarray]) -> int:
        """Merge one block's groups (:func:`group_rows` order) and their
        partials (one array per aggregate, in ``aggs`` order); returns
        the number of groups held."""
        slots = self.slots
        rows = list(zip(*(column.tolist() for column in keys)))
        found = list(map(slots.get, rows))
        if None in found:
            # new groups take the next slots, in block order
            for i, slot in enumerate(found):
                if slot is None:
                    found[i] = slots[rows[i]] = len(slots)
        index = np.array(found, dtype=np.intp)
        held = len(slots)
        for i, (agg, values) in enumerate(zip(self.aggs, self._values)):
            if held > values.shape[0]:
                values = self._values[i] = np.concatenate(
                    [values, self._fresh(agg.kind, max(held, 2 * values.shape[0]))]
                )
            if agg.kind in ("sum", "count"):
                # a sum past the float range is inf, as Python's + gives it
                with np.errstate(over="ignore"):
                    values[index] += partials[i]
            else:
                old = values.take(index)
                new = partials[i]
                better = new < old if agg.kind == "min" else new > old
                values[index] = np.where(better, new, old)
        return held

    def groups(self) -> dict[tuple, dict[str, Any]]:
        held = len(self.slots)
        rows: list[dict[str, Any]] = [{} for _ in range(held)]
        for agg, values in zip(self.aggs, self._values):
            for row, value in zip(rows, values[:held].tolist()):
                row[agg.alias] = value
        return dict(zip(self.slots, rows))


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

    Generated code accumulates reduce sinks into :attr:`acc` (one entry
    per aggregate alias), calls :meth:`group_rows` and
    :meth:`group_update` (group-agg sinks), :meth:`hash_table`
    (probes/builds) and uses :attr:`packer` / :attr:`hash_packer` (pack
    sinks).
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
        #: reduce-sink accumulators, alias -> running value
        self.acc: dict[str, Any] = {
            agg.alias: agg_identity(agg.kind) for agg in reduce_aggs or []
        }
        self.group_aggs = group_aggs or []
        self._groups: Optional[GroupTable] = None

    # -- hash tables -----------------------------------------------------------

    def hash_table(self, ht_id: str) -> HashTable:
        return self.query.hash_table(ht_id, self.domain)

    def ht_spilled(self, ht_id: str) -> bool:
        """Probe-cost hint: does this hash table spill the device cache?"""
        return self.query.spilled.get((ht_id, self.domain), True)

    # -- grouped aggregation -----------------------------------------------------

    def group_update(self, keys: list[np.ndarray], partials: list[np.ndarray]) -> int:
        """Merge one block's groups and partials into the instance's
        :class:`GroupTable`, created at the first block; returns the
        number of groups held."""
        if self._groups is None:
            self._groups = GroupTable(self.group_aggs)
        return self._groups.update(keys, partials)

    # -- partial extraction (for the collector) --------------------------------------

    @property
    def groups(self) -> dict[tuple, dict[str, Any]]:
        """Grouped partials, key -> alias -> value, in first-seen order."""
        return self._groups.groups() if self._groups is not None else {}

    def reduce_partials(self) -> dict[str, Any]:
        return dict(self.acc)

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
