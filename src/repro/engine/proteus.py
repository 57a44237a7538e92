"""The Proteus facade: a HetExchange-augmented JIT analytical engine.

This is the system of Section 5 — the public entry point a user of this
library touches:

* build a simulated server (defaults to the paper's machine);
* register columnar tables and choose their placement (CPU-interleaved,
  GPU-partitioned, GPU-replicated);
* run logical plans under an :class:`~repro.engine.config.ExecutionConfig`
  (CPU-only / GPU-only / hybrid / bare) and get back real rows plus a
  simulated execution profile.

Example::

    engine = Proteus()
    engine.register(my_table)
    result = engine.query(plan, ExecutionConfig.hybrid(24, [0, 1]))
    print(result.rows, result.seconds)
"""

from __future__ import annotations

from typing import Optional


from ..algebra.logical import Plan
from ..algebra.physical import CollectSpec, HetPlan
from ..algebra.placer import HeterogeneousPlacer
from ..hardware.costmodel import CostModel
from ..hardware.sim import Simulator
from ..hardware.specs import ServerSpec
from ..hardware.topology import Server
from ..jit.cache import PipelineCache, SharedCacheDirectory
from ..memory.managers import BlockManagerSet
from ..storage.catalog import Catalog
from ..storage.table import Placement, Table
from .config import CachePolicy, ExecutionConfig
from .collect import collect_result
from .executor import Executor, RawExecution
from .metrics import MetricsRegistry
from .results import QueryResult

__all__ = ["Proteus"]


class Proteus:
    """A heterogeneous analytical query engine on a simulated server.

    The engine keeps a :class:`~repro.jit.cache.PipelineCache` shared by
    every query it runs: structurally repeated stages (the common case
    for a dashboard re-issuing SSB queries) reuse the compiled pipeline
    instead of recompiling.  ``cache_policy``
    (:class:`~repro.engine.config.CachePolicy`) selects capacity and the
    eviction policy (``lru`` / ``cost_aware``); pass ``None`` to disable
    caching entirely.  ``shared_cache`` attaches this engine's cache to
    a cross-server :class:`~repro.jit.cache.SharedCacheDirectory`: L1
    misses fall back to the directory (promoting hits), fresh
    compilations publish into it, and evicted entries stay fetchable
    there — so a fleet of engines compiles each pipeline shape roughly
    once.
    """

    def __init__(
        self,
        spec: Optional[ServerSpec] = None,
        segment_rows: int = 1 << 20,
        cache_policy: Optional[CachePolicy] = CachePolicy(),
        shared_cache: Optional[SharedCacheDirectory] = None,
        sim: Optional[Simulator] = None,
    ):
        # an externally supplied simulator puts several engines on one
        # clock (the fleet's backends all advance together); by default
        # each engine owns a private one
        self.sim = sim if sim is not None else Simulator()
        self.server = Server(self.sim, spec or ServerSpec())
        self.catalog = Catalog(self.server, segment_rows=segment_rows)
        self.blocks = BlockManagerSet(self.server)
        self.cost = CostModel(self.server.spec)
        self.placer = HeterogeneousPlacer(self.server, self.catalog)
        if cache_policy is None and shared_cache is not None:
            raise ValueError(
                "shared_cache requires an enabled pipeline cache (cache_policy)"
            )
        self.cache_policy = cache_policy
        self.pipeline_cache = (
            PipelineCache(
                cache_policy.capacity,
                policy=cache_policy.eviction,
                shared=shared_cache,
            )
            if cache_policy is not None
            else None
        )
        self.executor = Executor(
            self.sim,
            self.server,
            self.catalog,
            self.blocks,
            self.cost,
            pipeline_cache=self.pipeline_cache,
        )
        #: the engine's observability surface; an EngineServer built on
        #: this engine attaches its metric families here, so two servers
        #: over one engine (or the facade's own callers) share one
        #: registry
        self.metrics = MetricsRegistry()

    # -- data -----------------------------------------------------------------

    def register(self, table: Table, placement: Optional[Placement] = None) -> None:
        """Register a table; defaults to CPU-interleaved placement."""
        self.catalog.register(table, placement)

    def place_gpu_partitioned(self, name: str, seed: int = 0) -> None:
        self.catalog.place_gpu_partitioned(name, seed=seed)

    # -- queries -----------------------------------------------------------------

    def plan(self, plan: Plan, config: ExecutionConfig) -> HetPlan:
        """Produce the heterogeneity-aware plan without executing it."""
        return self.placer.place(plan, config)

    def query(self, plan: Plan, config: ExecutionConfig) -> QueryResult:
        """Plan, JIT-compile, and execute; returns rows + profile."""
        het = self.placer.place(plan, config)
        raw = self.executor.execute(het, config)
        return self._collect(het.collect, raw)

    # -- result shaping ("pipeline 2": the single-threaded collector) ---------------

    def _collect(self, spec: CollectSpec, raw: RawExecution) -> QueryResult:
        return collect_result(
            spec,
            raw.reduce_partials,
            raw.group_partials,
            raw.row_blocks,
            raw.profile,
            self.catalog.dictionary_of,
        )

    # -- introspection ------------------------------------------------------------

    def pipeline_sources(self, plan: Plan, config: ExecutionConfig) -> dict[str, str]:
        """Generated source per stage (debugging / the paper's Figure 3)."""
        from ..jit.codegen import PipelineCompiler

        het = self.placer.place(plan, config)
        compiler = PipelineCompiler(self.catalog.column_widths())
        return {
            stage.name: compiler.compile_stage(stage).source
            for stage in het.all_stages()
            if not stage.is_source
        }
