"""Compiled-pipeline caching: skip recompilation of structurally equal stages.

A JIT engine serving a query stream recompiles the same handful of
pipeline shapes over and over — the 13 SSB queries produce a few dozen
distinct (stage structure, device) pairs in total.  This module provides
the plan-cache half of multi-query serving: compiled pipelines are keyed
by a *structural signature* of the stage (operator chain, expression
sources, referenced column widths and the target device) so that

* the same query resubmitted later hits the cache regardless of its
  degree of parallelism or affinity (neither affects generated code);
* two different queries sharing a stage shape (e.g. the same dimension
  build) share one compiled pipeline.

Compiled pipelines are immutable: the generated function only touches the
:class:`~repro.jit.pipeline.PipelineState` passed per invocation, so one
cached entry is safely shared by any number of concurrent queries — and,
through a :class:`SharedCacheDirectory`, by any number of *servers*.

Two layers of policy live here:

* **Eviction** is one of two fixed rules, chosen by name: plain recency
  (``lru``) or the GDSF-style ``cost_aware`` rule whose score is
  ``floor + cost * (hits + 1) / size`` (``cost`` = compile seconds) —
  an expensive-to-compile GPU pipeline outlives many cheap CPU filters
  even when it is touched less recently, because evicting it costs the
  server ~an order of magnitude more simulated recompilation latency
  (see :meth:`~repro.hardware.costmodel.CostModel.compile_demand`).
  The monotone ``floor`` (raised to each victim's score on eviction) is
  the classic GreedyDual aging term: entries that stop being touched
  eventually fall below fresh traffic no matter how expensive they were.
* **Sharing** is two-tier: each server keeps a private L1
  :class:`PipelineCache`; servers attached to the same
  :class:`SharedCacheDirectory` publish fresh compilations to it (L2)
  and fall back to it on L1 misses, *promoting* hits into their L1.  An
  L1 eviction *demotes* the entry — it stays fetchable from the
  directory until the directory's own (cost-aware by default) policy
  drops it.  A directory hit served to a cache that did not publish the
  entry is a **cross-server hit**: one server's compilation saved
  another server the full compile latency.

Insertions are first-writer-wins: :meth:`PipelineCache.put` on an
already-resident key keeps the published entry (counting a
``redundant_compiles`` stat) and returns it, so two racing compiles of
the same shape never yield distinct function objects mid-batch.

:class:`CacheStats` exposes the hit/miss/eviction counters the scheduler
reports per batch; :meth:`CacheStats.snapshot` includes lookups, the
:data:`TOP_ENTRIES` hottest resident entries, and the current
size/capacity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Hashable, Optional

from ..algebra.physical import (
    OpBuildSink,
    OpFilter,
    OpGroupAggSink,
    OpHashPackSink,
    OpPackSink,
    OpProbe,
    OpProject,
    OpReduceSink,
    OpUnpack,
    Stage,
)
from ..hardware.costmodel import DEFAULT_COMPILE_SECONDS
from .pipeline import CompiledPipeline

__all__ = [
    "PipelineCache",
    "SharedCacheDirectory",
    "CacheStats",
    "stage_signature",
]

#: the eviction rules a cache tier can be built with (see _EntryTable)
EVICTION_RULES = ("lru", "cost_aware")

#: length of the hottest-resident-entries list in a snapshot
TOP_ENTRIES = 5


def _ident(name: str) -> str:
    """Shared with codegen: sanitise a column name into an identifier."""
    return re.sub(r"\W", "_", name)


def _var(name: str) -> str:
    """Shared with codegen: the generated-code variable for a column."""
    return f"c_{_ident(name)}"


def _op_signature(op, width: Callable[[str], int]) -> Optional[tuple]:
    """Canonical, hashable description of one pipeline operator.

    Everything that influences the generated source must appear here:
    expression sources (rendered exactly as codegen renders them), column
    sets in order, and the byte widths codegen bakes into the stats
    instrumentation.  Parallelism traits (dop, affinity) deliberately do
    not — they never reach the generated code.
    """
    if isinstance(op, OpUnpack):
        return ("unpack", tuple(op.columns), tuple(width(c) for c in op.columns))
    if isinstance(op, OpFilter):
        return ("filter", op.predicate.source(_var))
    if isinstance(op, OpProject):
        return ("project", tuple((alias, e.source(_var)) for alias, e in op.exprs))
    if isinstance(op, OpProbe):
        return (
            "probe",
            op.ht_id,
            op.probe_key,
            tuple(op.payload),
            tuple(width(p) for p in op.payload),
        )
    if isinstance(op, OpBuildSink):
        return (
            "build",
            op.ht_id,
            op.build_key,
            tuple(op.payload),
            tuple(width(p) for p in op.payload),
        )
    if isinstance(op, OpReduceSink):
        aggs = tuple((a.kind, a.alias, a.expr.source(_var)) for a in op.aggs)
        return ("reduce", aggs)
    if isinstance(op, OpGroupAggSink):
        return (
            "groupagg",
            tuple(op.keys),
            tuple((a.kind, a.alias, a.expr.source(_var)) for a in op.aggs),
        )
    if isinstance(op, OpHashPackSink):
        return (
            "hashpack",
            op.key,
            op.partitions,
            tuple(op.columns),
            tuple(width(c) for c in op.columns),
        )
    if isinstance(op, OpPackSink):
        return ("pack", tuple(op.columns), tuple(width(c) for c in op.columns))
    # Unknown op type: no structural signature exists, so the stage is
    # UNCACHEABLE (returning any id()-style surrogate would risk a false
    # hit once the surrogate is reused).
    return None


def stage_signature(stage: Stage, width: Callable[[str], int]) -> Optional[tuple]:
    """Structural cache key for one stage on its device.

    The stage *name* is included because codegen embeds it in the
    generated function name; names are derived from the plan shape
    ("probe-cpu", "build-ht0-gpu", ...), so equal shapes share keys while
    the compiled function object stays self-describing.

    Returns ``None`` when the stage contains an operator this module
    cannot describe structurally — callers must then bypass the cache
    entirely rather than risk a collision.
    """
    ops = tuple(_op_signature(op, width) for op in stage.ops)
    if any(sig is None for sig in ops):
        return None
    return (stage.device.value, stage.name, ops)


def _entry_label(key: Hashable) -> str:
    """Human-readable tag for one cache key in snapshots.

    Structural signatures are ``(device, stage name, ops)`` tuples; the
    name+device pair identifies the pipeline well enough for a report.
    """
    if isinstance(key, tuple) and len(key) == 3 and isinstance(key[1], str):
        return f"{key[1]}@{key[0]}"
    return str(key)


@dataclass
class _CacheEntry:
    """One resident compiled pipeline plus its policy metadata."""

    key: Hashable
    pipeline: CompiledPipeline
    #: simulated seconds a recompile of this pipeline would cost
    cost: float
    #: footprint proxy (bytes of generated source)
    size: float
    #: hits since this entry entered the tier it lives in
    hits: int = 0
    #: monotonic recency tick (maintained by the owning cache)
    last_used: int = 0
    #: cost-aware score (maintained by the owning cache)
    score: float = 0.0
    #: the L1 cache that published this entry into a shared directory
    #: (None for L1-resident entries; identity drives cross-server stats)
    publisher: Optional[object] = None


@dataclass
class CacheStats:
    """Monotonic counters over one cache tier's lifetime."""

    hits: int = 0
    misses: int = 0
    #: L1 misses served out of the attached SharedCacheDirectory
    shared_hits: int = 0
    #: directory hits served to a cache that did not publish the entry
    #: (directory tier only — one server reusing another's compilation)
    cross_server_hits: int = 0
    evictions: int = 0
    #: put() calls that found the key already resident and kept the
    #: published entry (two racing compiles of the same shape)
    redundant_compiles: int = 0
    #: per-key hit counts of the currently resident entries
    entry_hits: dict = field(default_factory=dict)
    #: resident entries / configured bound (maintained by the cache)
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.shared_hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return (self.hits + self.shared_hits) / self.lookups

    def snapshot(self) -> dict:
        """Full per-tier report: counters, rates, residency.

        The hottest-resident-entries list is capped at
        :data:`TOP_ENTRIES` (the per-batch cache report would otherwise
        grow with the cache).
        """
        top = sorted(
            self.entry_hits.items(),
            key=lambda kv: (-kv[1], _entry_label(kv[0])),
        )[:TOP_ENTRIES]
        return {
            "hits": self.hits,
            "misses": self.misses,
            "shared_hits": self.shared_hits,
            "cross_server_hits": self.cross_server_hits,
            "evictions": self.evictions,
            "redundant_compiles": self.redundant_compiles,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "size": self.size,
            "capacity": self.capacity,
            "top_entries": [
                {"entry": _entry_label(key), "hits": hits} for key, hits in top
            ],
        }


class _EntryTable:
    """Shared mechanics of one cache tier: residency, eviction, stats.

    Both the per-server L1 and the cross-server directory are an entry
    table; they differ only in how entries arrive (put+promote vs
    publish+demote), which the subclasses implement.

    ``policy`` names the eviction rule (one of :data:`EVICTION_RULES`);
    the victim is the resident entry with the smallest rank: ``lru``
    ranks by ``last_used``, ``cost_aware`` by ``(score, last_used)``.
    Every touch (insert or hit) refreshes ``score = floor + cost *
    (hits + 1) / size``, and each eviction raises ``floor`` to the
    victim's score (GreedyDual aging, see the module docstring).
    """

    def __init__(self, capacity: int, policy: str = "lru"):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        if policy not in EVICTION_RULES:
            raise ValueError(
                f"unknown eviction policy {policy!r}; expected one of "
                f"{sorted(EVICTION_RULES)}"
            )
        self.capacity = capacity
        self.stats = CacheStats(capacity=capacity)
        self._entries: dict[Hashable, _CacheEntry] = {}
        self._tick = 0
        #: GreedyDual aging floor (lru ranks ignore scores)
        self._floor = 0.0
        self._rank = (
            attrgetter("score", "last_used")
            if policy == "cost_aware"
            else attrgetter("last_used")
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> list:
        """Resident keys in eviction order (most evictable first)."""
        return [entry.key for entry in sorted(self._entries.values(), key=self._rank)]

    def clear(self) -> None:
        self._entries.clear()
        self.stats.entry_hits.clear()
        self.stats.size = 0

    # -- tier mechanics ----------------------------------------------------

    def _touch(self, entry: _CacheEntry) -> None:
        self._tick += 1
        entry.last_used = self._tick
        entry.score = self._floor + entry.cost * (entry.hits + 1.0) / entry.size

    def _record_hit(self, entry: _CacheEntry) -> None:
        entry.hits += 1
        self._touch(entry)
        self.stats.hits += 1
        self.stats.entry_hits[entry.key] = self.stats.entry_hits.get(entry.key, 0) + 1

    def _insert(
        self,
        key: Hashable,
        pipeline: CompiledPipeline,
        cost: float,
        size: float,
        publisher: Optional[object] = None,
    ) -> _CacheEntry:
        entry = _CacheEntry(
            key=key,
            pipeline=pipeline,
            cost=cost,
            size=max(1.0, float(size)),
            publisher=publisher,
        )
        self._touch(entry)
        self._entries[key] = entry
        # seed the residency-hit counter BEFORE the eviction scan: the
        # incoming entry may itself be the victim (lowest cost-aware
        # score on a full cache), and the pop below must then remove it
        # — seeding afterwards would leave a phantom "resident" key in
        # entry_hits forever
        self.stats.entry_hits.setdefault(key, 0)
        while len(self._entries) > self.capacity:
            victim = min(self._entries.values(), key=self._rank)
            del self._entries[victim.key]
            self.stats.entry_hits.pop(victim.key, None)
            self.stats.evictions += 1
            self._floor = max(self._floor, victim.score)
            self._evicted(victim)
        self.stats.size = len(self._entries)
        return entry

    def _evicted(self, entry: _CacheEntry) -> None:
        """Tier-specific eviction hook (L1 demotes to the directory)."""

    @staticmethod
    def _size_of(pipeline, size: Optional[float]) -> float:
        """Footprint proxy: bytes of generated source (fallback 1)."""
        if size is not None:
            return float(size)
        source = getattr(pipeline, "source", None)
        if isinstance(source, str) and source:
            return float(len(source))
        return 1.0


class PipelineCache(_EntryTable):
    """Per-server (L1) cache of :class:`CompiledPipeline` objects.

    ``policy`` names the eviction rule (``"lru"`` or ``"cost_aware"``);
    ``shared`` attaches the cache to a cross-server
    :class:`SharedCacheDirectory` (L2) that L1 misses fall back to and
    fresh compilations publish into.
    """

    def __init__(
        self,
        capacity: int = 128,
        policy: str = "lru",
        shared: Optional["SharedCacheDirectory"] = None,
    ):
        super().__init__(capacity, policy)
        self.shared = shared

    def get(self, key: Hashable) -> Optional[CompiledPipeline]:
        """Look up a compiled pipeline; counts a hit, shared hit or miss.

        An L1 miss consults the attached directory; a directory hit is
        *promoted* — inserted into this cache (possibly demoting an L1
        victim back to the directory) — and counted as ``shared_hits``,
        never as a miss: the caller gets a pipeline without compiling.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._record_hit(entry)
            return entry.pipeline
        if self.shared is not None:
            fetched = self.shared.fetch(key, requester=self)
            if fetched is not None:
                self.stats.shared_hits += 1
                self._insert(key, fetched.pipeline, fetched.cost, fetched.size)
                return fetched.pipeline
        self.stats.misses += 1
        return None

    def put(
        self,
        key: Hashable,
        pipeline: CompiledPipeline,
        cost: Optional[float] = None,
        size: Optional[float] = None,
    ) -> CompiledPipeline:
        """Insert a freshly compiled pipeline; returns the entry to USE.

        First-writer-wins: if the key is already resident the published
        pipeline is kept (a ``redundant_compiles`` stat is counted) and
        returned — callers must adopt the return value so two racing
        compiles of the same shape never put distinct function objects
        in flight.  ``cost`` is the simulated recompile latency the
        eviction rule protects (defaults to the flat per-pipeline
        constant); ``size`` the footprint proxy (defaults to the
        generated source length).  New entries are also published to the
        attached directory, which applies its own first-writer-wins —
        the directory's canonical pipeline is what lands in this cache.
        """
        resident = self._entries.get(key)
        if resident is not None:
            self.stats.redundant_compiles += 1
            return resident.pipeline
        cost = DEFAULT_COMPILE_SECONDS if cost is None else float(cost)
        size = self._size_of(pipeline, size)
        if self.shared is not None:
            pipeline = self.shared.publish(key, pipeline, cost, size, publisher=self)
        self._insert(key, pipeline, cost, size)
        return pipeline

    def snapshot(self) -> dict:
        """Per-tier stats: this cache's counters plus the directory's
        (under ``"shared"``) when one is attached."""
        out = self.stats.snapshot()
        if self.shared is not None:
            out["shared"] = self.shared.stats.snapshot()
        return out

    def _evicted(self, entry: _CacheEntry) -> None:
        # Demotion: an L1 victim stays fetchable from the directory (a
        # refresh if still resident there, a re-publish if the directory
        # itself dropped it meanwhile).
        if self.shared is not None:
            self.shared.publish(
                entry.key,
                entry.pipeline,
                entry.cost,
                entry.size,
                publisher=self,
                demotion=True,
            )


class SharedCacheDirectory(_EntryTable):
    """Cross-server (L2) compiled-pipeline directory.

    Multiple engines/servers attach their :class:`PipelineCache` to one
    directory (``Proteus(shared_cache=directory)``); compiled pipelines
    are keyed by the same structural signatures, so any server's
    compilation serves every server whose catalog renders the same
    stage (compiled functions are stateless — per-query state is created
    via ``new_state``, so sharing across engines is as safe as sharing
    across queries).  Eviction defaults to ``cost_aware``: the directory
    exists to protect expensive compilations.

    ``stats.cross_server_hits`` counts fetches served to a cache other
    than the entry's publisher — the figure that says sharing actually
    moved compilations between servers rather than around one.
    """

    def __init__(self, capacity: int = 512, policy: str = "cost_aware"):
        super().__init__(capacity, policy)

    def fetch(
        self, key: Hashable, requester: Optional[PipelineCache] = None
    ) -> Optional[_CacheEntry]:
        """Directory lookup on behalf of an attached cache."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._record_hit(entry)
        if requester is not None and entry.publisher is not requester:
            self.stats.cross_server_hits += 1
        return entry

    def publish(
        self,
        key: Hashable,
        pipeline: CompiledPipeline,
        cost: float,
        size: float,
        publisher: Optional[PipelineCache] = None,
        demotion: bool = False,
    ) -> CompiledPipeline:
        """First-writer-wins insert; returns the canonical pipeline.

        A publish of an already-resident key keeps the existing entry
        and returns its pipeline (counted as a redundant compile unless
        it is a *demotion* — an L1 eviction refreshing its directory
        copy, which is bookkeeping rather than wasted work).
        """
        resident = self._entries.get(key)
        if resident is not None:
            if not demotion:
                self.stats.redundant_compiles += 1
            return resident.pipeline
        self._insert(key, pipeline, cost, size, publisher=publisher)
        return pipeline

    def snapshot(self) -> dict:
        return self.stats.snapshot()
