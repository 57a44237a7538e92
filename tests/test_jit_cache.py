"""Compiled-pipeline cache: hit/miss/eviction semantics and result parity.

Covers the structural signature (what must and must not distinguish two
stages), eviction accounting under every policy (``lru`` /
``cost_aware``), the policy differential on a repeated SSB trace (the
cost-aware policy retains GPU pipelines LRU evicts, for strictly lower
total recompile cost), two-tier sharing through a
:class:`SharedCacheDirectory` (promotion on hit, demotion on eviction,
cross-server hits), first-writer-wins insertion, and — most importantly —
that a cached pipeline produces output identical to a freshly compiled
one, both at the pipeline level (same generated function, same state
effects) and at the whole-query level (cached engine == cache-disabled
engine == shared-directory engine == reference).
"""

import hashlib
import random

import numpy as np
import pytest

from repro import (
    CachePolicy,
    EngineServer,
    ExecutionConfig,
    Proteus,
    SharedCacheDirectory,
    agg_sum,
    col,
    scan,
)
from repro.engine.reference import ReferenceExecutor
from repro.jit.cache import TOP_ENTRIES, PipelineCache, stage_signature
from repro.jit.codegen import PipelineCompiler
from repro.jit.pipeline import QueryState
from repro.ssb import SSB_QUERY_IDS, load_ssb, ssb_query
from repro.storage import Column, DataType, Table
from scenario import reference_rows, ssb_tables


def _table(seed=3, rows=4_000):
    rng = np.random.default_rng(seed)
    return Table("t", [
        Column.from_values("a", DataType.INT64, rng.integers(0, 500, rows)),
        Column.from_values("b", DataType.INT32, rng.integers(0, 60, rows)),
    ])


def _plan(threshold=30):
    return (
        scan("t", ["a", "b"])
        .filter(col("b") < threshold)
        .reduce([agg_sum(col("a") * col("b"), "s")])
    )


def _engine(**kwargs) -> Proteus:
    engine = Proteus(segment_rows=1024, **kwargs)
    engine.register(_table())
    return engine


def _probe_stage(engine, plan, config):
    het = engine.placer.place(plan, config)
    return next(s for s in het.all_stages() if not s.is_source)


class TestHitMiss:
    def test_recompiling_same_plan_hits(self):
        engine = _engine()
        config = ExecutionConfig.cpu_only(2, block_tuples=512)
        het = engine.placer.place(_plan(), config)
        engine.executor.compile_plan(het)
        stats = engine.pipeline_cache.stats
        misses_after_first = stats.misses
        assert misses_after_first > 0 and stats.hits == 0
        engine.executor.compile_plan(engine.placer.place(_plan(), config))
        assert stats.misses == misses_after_first
        assert stats.hits == misses_after_first
        assert stats.hit_rate == 0.5

    def test_dop_and_affinity_do_not_miss(self):
        """Parallelism traits never reach generated code, so the same
        query at a different degree of parallelism reuses the pipeline."""
        engine = _engine()
        engine.executor.compile_plan(
            engine.placer.place(_plan(), ExecutionConfig.cpu_only(2, block_tuples=512))
        )
        misses = engine.pipeline_cache.stats.misses
        engine.executor.compile_plan(
            engine.placer.place(_plan(), ExecutionConfig.cpu_only(7, block_tuples=512))
        )
        assert engine.pipeline_cache.stats.misses == misses

    def test_different_predicate_misses(self):
        engine = _engine()
        config = ExecutionConfig.cpu_only(2, block_tuples=512)
        engine.executor.compile_plan(engine.placer.place(_plan(30), config))
        misses = engine.pipeline_cache.stats.misses
        engine.executor.compile_plan(engine.placer.place(_plan(31), config))
        assert engine.pipeline_cache.stats.misses > misses

    def test_different_device_misses(self):
        engine = _engine()
        stage_cpu = _probe_stage(
            engine, _plan(), ExecutionConfig.cpu_only(2, block_tuples=512))
        stage_gpu = _probe_stage(
            engine, _plan(), ExecutionConfig.gpu_only([0], block_tuples=512))
        width = engine.catalog.column_widths().get
        sig_cpu = stage_signature(stage_cpu, lambda c: width(c, 8))
        sig_gpu = stage_signature(stage_gpu, lambda c: width(c, 8))
        assert sig_cpu != sig_gpu

    def test_width_change_misses(self):
        """Column widths are baked into the generated stats constants, so
        a catalog change that alters widths must not reuse stale code."""
        engine = _engine()
        stage = _probe_stage(
            engine, _plan(), ExecutionConfig.cpu_only(2, block_tuples=512))
        sig_narrow = stage_signature(stage, lambda c: 4)
        sig_wide = stage_signature(stage, lambda c: 8)
        assert sig_narrow != sig_wide


class TestEviction:
    class _Dummy:
        def __init__(self, tag):
            self.tag = tag

    def test_lru_eviction_order_and_counts(self):
        cache = PipelineCache(capacity=2)
        cache.put("k1", self._Dummy(1))
        cache.put("k2", self._Dummy(2))
        assert cache.get("k1").tag == 1  # k1 becomes most-recent
        cache.put("k3", self._Dummy(3))  # evicts k2 (LRU)
        assert cache.stats.evictions == 1
        assert "k2" not in cache and "k1" in cache and "k3" in cache
        assert cache.get("k2") is None  # miss after eviction
        assert cache.stats.misses == 1

    def test_reinsert_same_key_is_first_writer_wins(self):
        """put() on a resident key keeps the PUBLISHED entry: concurrent
        sessions holding the first pipeline must never observe a second,
        distinct function object for the same shape mid-batch."""
        cache = PipelineCache(capacity=2)
        first, second = self._Dummy(1), self._Dummy(10)
        assert cache.put("k1", first) is first
        # the losing racer is told to adopt the published entry ...
        assert cache.put("k1", second) is first
        cache.put("k2", self._Dummy(2))
        assert cache.stats.evictions == 0
        # ... and the resident entry is untouched, with the redundant
        # compile counted instead of silently replacing the object
        assert cache.get("k1") is first
        assert cache.stats.redundant_compiles == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PipelineCache(capacity=0)

    def test_zero_capacity_engine_raises_not_silently_disables(self):
        with pytest.raises(ValueError):
            Proteus(segment_rows=1024, cache_policy=CachePolicy(capacity=0))

    def test_evicted_pipeline_recompiles_and_still_works(self):
        engine = _engine(cache_policy=CachePolicy(capacity=1))
        config = ExecutionConfig.cpu_only(2, block_tuples=512)
        r1 = engine.query(_plan(30), config)
        r2 = engine.query(_plan(40), config)  # evicts the first pipeline
        r3 = engine.query(_plan(30), config)  # recompiled after eviction
        assert engine.pipeline_cache.stats.evictions > 0
        assert r3.value("s") == r1.value("s")
        assert r2.value("s") != r1.value("s")


class TestOneCompilePath:
    """``compile_plan`` is the two-phase protocol run back to back: the
    same cache traffic and, warm, the same function objects."""

    def test_compile_plan_equals_begin_then_finish(self):
        tables = ssb_tables(0.002, 5)
        one_shot, two_phase = (
            Proteus(segment_rows=1024, cache_policy=CachePolicy(capacity=32))
            for _ in range(2)
        )
        for engine in (one_shot, two_phase):
            load_ssb(engine, tables=tables)
        configs = [
            ExecutionConfig.cpu_only(4, block_tuples=512),
            ExecutionConfig.gpu_only([0, 1], block_tuples=512),
            ExecutionConfig.hybrid(4, [0, 1], block_tuples=512),
        ]
        for config in configs:
            for qid in SSB_QUERY_IDS:
                plan = ssb_query(qid)
                a = one_shot.executor.compile_plan(one_shot.placer.place(plan, config))
                b = two_phase.executor.begin_compilation(
                    two_phase.placer.place(plan, config)).finish()
                assert len(a) == len(b) > 0
                assert [p.source for p in a.values()] == [
                    p.source for p in b.values()]
        assert one_shot.pipeline_cache.snapshot() == two_phase.pipeline_cache.snapshot()
        assert one_shot.pipeline_cache.stats.evictions > 0
        # warm: both spellings hand back the resident objects
        het = one_shot.placer.place(ssb_query("Q4.3"), configs[-1])
        first = one_shot.executor.compile_plan(het)
        compilation = one_shot.executor.begin_compilation(het)
        assert compilation.fresh_count == 0
        second = compilation.finish()
        assert first.keys() == second.keys()
        assert all(first[k] is second[k] for k in first)
        assert all(first[k].fn is second[k].fn for k in first)


class TestCachedOutputParity:
    def test_cached_fn_is_the_same_object_with_fresh_state(self):
        engine = _engine()
        config = ExecutionConfig.cpu_only(2, block_tuples=512)
        het = engine.placer.place(_plan(), config)
        first = engine.executor.compile_plan(het)
        second = engine.executor.compile_plan(
            engine.placer.place(_plan(), config))
        for stage_id in second:
            # compiled artefacts are shared ...
            assert any(second[stage_id] is p for p in first.values())
        # ... but state is created fresh per query
        pipeline = next(iter(second.values()))
        state_a = pipeline.new_state(QueryState("qa"), "cpu", 512)
        state_b = pipeline.new_state(QueryState("qb"), "cpu", 512)
        assert state_a is not state_b
        assert state_a.stats is not state_b.stats

    def test_cached_pipeline_output_matches_fresh_compile(self):
        """Run the same block through the cached fn and a fresh compile:
        identical emitted output and identical accumulator effects."""
        engine = _engine()
        config = ExecutionConfig.cpu_only(1, block_tuples=512)
        het = engine.placer.place(_plan(), config)
        stage = next(s for s in het.all_stages() if not s.is_source)
        engine.executor.compile_plan(het)
        hits = engine.pipeline_cache.stats.hits
        cached = engine.executor.compile_plan(het)[stage.stage_id]
        assert engine.pipeline_cache.stats.hits > hits
        fresh = PipelineCompiler(engine.catalog.column_widths()).compile_stage(stage)
        assert cached is not fresh and cached.source == fresh.source
        rng = np.random.default_rng(11)
        cols = {
            "a": rng.integers(0, 500, 512).astype(np.int64),
            "b": rng.integers(0, 60, 512).astype(np.int32),
        }
        state_c = cached.new_state(QueryState(), "cpu", 512)
        state_f = fresh.new_state(QueryState(), "cpu", 512)
        out_c = cached.fn(state_c, cols, state_c.stats)
        out_f = fresh.fn(state_f, cols, state_f.stats)
        assert out_c == out_f == []
        assert state_c.reduce_partials() == state_f.reduce_partials()
        assert state_c.stats.tuples_in == state_f.stats.tuples_in
        assert state_c.stats.bytes_in == state_f.stats.bytes_in

    def test_begin_compilation_pins_resident_pipelines_across_eviction(self):
        """Two-phase compilation: pipelines fetched at admission stay
        valid even if a concurrent query evicts them from the cache
        before finish() runs (no silent uncharged recompile)."""
        engine = _engine()
        config = ExecutionConfig.cpu_only(2, block_tuples=512)
        engine.executor.compile_plan(engine.placer.place(_plan(), config))
        compilation = engine.executor.begin_compilation(
            engine.placer.place(_plan(), config))
        assert compilation.fresh_count == 0
        misses_before = engine.pipeline_cache.stats.misses
        engine.pipeline_cache.clear()  # a concurrent eviction storm
        pipelines = compilation.finish()
        assert len(pipelines) > 0
        # nothing was recompiled: no new cache misses were recorded
        assert engine.pipeline_cache.stats.misses == misses_before

    def test_query_results_identical_with_and_without_cache(self):
        tables = {"t": _table()}
        cached_engine = _engine()
        plain_engine = _engine(cache_policy=None)
        assert plain_engine.pipeline_cache is None
        config = ExecutionConfig.hybrid(3, [0, 1], block_tuples=512)
        reference = ReferenceExecutor(tables).execute(_plan())
        for engine in (cached_engine, cached_engine, plain_engine):
            result = engine.query(_plan(), config)
            assert sorted(result.rows) == sorted(reference)
        assert cached_engine.pipeline_cache.stats.hits > 0


class _Fake:
    """Stand-in pipeline with a sized 'generated source'."""

    def __init__(self, tag, source_len=100):
        self.tag = tag
        self.source = "x" * source_len


class TestSnapshotAccounting:
    def test_snapshot_reports_lookups_residency_and_top_entries(self):
        cache = PipelineCache(capacity=4)
        cache.put("hot", _Fake(1))
        cache.put("warm", _Fake(2))
        for _ in range(3):
            cache.get("hot")
        cache.get("warm")
        cache.get("absent")  # miss
        snap = cache.snapshot()
        assert snap["hits"] == 4 and snap["misses"] == 1
        assert snap["lookups"] == 5  # the previously-omitted counter
        assert snap["size"] == 2 and snap["capacity"] == 4
        # hottest first, each resident entry's own hit count
        assert snap["top_entries"][0] == {"entry": "hot", "hits": 3}
        assert snap["top_entries"][1] == {"entry": "warm", "hits": 1}

    def test_snapshot_top_n_is_bounded(self):
        directory = SharedCacheDirectory(capacity=16)
        cache = PipelineCache(capacity=16, shared=directory)
        for i in range(TOP_ENTRIES + 3):
            cache.put(f"k{i}", _Fake(i))
            cache.get(f"k{i}")
        snap = cache.snapshot()
        assert len(cache) == TOP_ENTRIES + 3
        assert len(snap["top_entries"]) == TOP_ENTRIES
        assert len(snap["shared"]["top_entries"]) == TOP_ENTRIES

    def test_eviction_drops_entry_hits(self):
        cache = PipelineCache(capacity=1)
        cache.put("k1", _Fake(1))
        cache.get("k1")
        cache.put("k2", _Fake(2))  # evicts k1
        labels = {e["entry"] for e in cache.snapshot()["top_entries"]}
        assert labels == {"k2"}

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError):
            PipelineCache(capacity=2, policy="fifo")
        with pytest.raises(ValueError):
            SharedCacheDirectory(policy="belady")
        with pytest.raises(ValueError):
            CachePolicy(eviction="fifo")
        with pytest.raises(ValueError):
            CachePolicy(capacity=0)


class TestEvictionPolicySemantics:
    """Synthetic single-tier traces: what each policy protects."""

    def test_cost_aware_protects_expensive_pipelines(self):
        """A GPU pipeline (8x compile cost) outlives a flood of cheap
        CPU shapes that plain LRU would let push it out."""
        trace = [("gpu", 0.2)] + [(f"cpu{i}", 0.025) for i in range(6)]
        survivors = {}
        for policy in ("lru", "cost_aware"):
            cache = PipelineCache(capacity=3, policy=policy)
            cache.put("gpu", _Fake(0), cost=0.2)
            cache.get("gpu")  # touched once, then the flood arrives
            for key, cost in trace[1:]:
                cache.put(key, _Fake(key), cost=cost)
            survivors[policy] = "gpu" in cache
        assert survivors == {"lru": False, "cost_aware": True}

    def test_cost_aware_aging_floor_retires_stale_entries(self):
        """GreedyDual aging: an expensive entry nobody touches is
        eventually overtaken by fresh traffic instead of squatting."""
        cache = PipelineCache(capacity=2, policy="cost_aware")
        cache.put("stale-gpu", _Fake(0), cost=0.2)
        # each eviction raises the floor; eventually fresh cheap entries
        # score above the never-touched expensive one
        for i in range(40):
            cache.put(f"cpu{i}", _Fake(i), cost=0.025)
            cache.get(f"cpu{i}")
        assert "stale-gpu" not in cache

    def test_cost_aware_score_divides_by_size(self):
        """Equal cost and hits: the smaller entry is worth keeping."""
        cache = PipelineCache(capacity=2, policy="cost_aware")
        cache.put("big", _Fake(1, source_len=4000), cost=0.1)
        cache.put("small", _Fake(2, source_len=100), cost=0.1)
        cache.put("next", _Fake(3, source_len=100), cost=0.1)
        assert "big" not in cache
        assert "small" in cache and "next" in cache


#: the repeated-trace working set: a hot GPU mix recompiled every round
#: plus a churn of every SSB flight's CPU shapes (~48 distinct stage
#: signatures against a capacity-18 cache)
_TRACE_CAPACITY = 18
_TRACE_HOT_GPU = ["Q4.1", "Q4.2"]


class TestEvictionPolicyMatrix:
    """Same SSB trace, every policy: the cost-aware differential.

    The trace replays rounds of [hot GPU mix + CPU churn] against a
    capacity-constrained cache.  Each round's churn cycles more
    signatures than fit, so plain LRU ends every round having evicted
    the GPU pipelines; the cost-aware policy keeps them (compile cost
    ~8x) and spends its misses on the cheap CPU shapes instead.
    """

    def _engine(self, eviction):
        engine = Proteus(
            segment_rows=2048,
            cache_policy=CachePolicy(capacity=_TRACE_CAPACITY, eviction=eviction),
        )
        load_ssb(engine, tables=ssb_tables())
        return engine

    def _replay(self, engine, rounds=3):
        """Drive compilations only (the trace is about the cache, not
        the simulator); returns the total simulated recompile cost."""
        gpu_cfg = ExecutionConfig.gpu_only([0, 1], block_tuples=4096)
        cpu_cfg = ExecutionConfig.cpu_only(4, block_tuples=4096)
        total = 0.0
        for _ in range(rounds):
            workload = [(qid, gpu_cfg) for qid in _TRACE_HOT_GPU]
            workload += [(qid, cpu_cfg) for qid in SSB_QUERY_IDS]
            for qid, cfg in workload:
                het = engine.placer.place(ssb_query(qid), cfg)
                compilation = engine.executor.begin_compilation(het)
                total += compilation.compile_seconds()
                compilation.finish()
        return total

    def _gpu_resident(self, engine):
        return sum(1 for key in engine.pipeline_cache.keys() if key[0] == "gpu")

    def test_cost_aware_retains_gpu_pipelines_lru_evicts(self):
        results = {}
        for eviction in ("lru", "cost_aware"):
            engine = self._engine(eviction)
            cost = self._replay(engine)
            results[eviction] = (cost, engine.pipeline_cache.stats.hit_rate,
                                 self._gpu_resident(engine))
        lru_cost, lru_rate, lru_gpu = results["lru"]
        ca_cost, ca_rate, ca_gpu = results["cost_aware"]
        # the headline: strictly lower total simulated recompile cost
        assert ca_cost < lru_cost
        # because the expensive GPU pipelines stayed resident ...
        assert ca_gpu > 0
        assert lru_gpu == 0
        # ... which also lifts the hit rate on this trace
        assert ca_rate > lru_rate

    def test_policy_choice_never_changes_results(self):
        expected = sorted(reference_rows("Q2.1"))
        cfg = ExecutionConfig.hybrid(3, [0, 1], block_tuples=4096)
        for eviction in ("lru", "cost_aware"):
            engine = self._engine(eviction)
            self._replay(engine, rounds=1)  # pre-churned, part-evicted cache
            result = engine.query(ssb_query("Q2.1"), cfg)
            assert sorted(result.rows) == expected, eviction


class TestSharedDirectory:
    """Two-tier sharing: L1 promotion, demotion, cross-server hits."""

    def test_l2_hit_promotes_into_l1(self):
        directory = SharedCacheDirectory(capacity=8)
        a = PipelineCache(capacity=4, shared=directory)
        b = PipelineCache(capacity=4, shared=directory)
        pipeline = _Fake(1)
        a.put("k", pipeline, cost=0.1)
        assert "k" in directory and "k" not in b
        got = b.get("k")
        assert got is pipeline  # the exact published object
        assert "k" in b  # promoted: next lookup is a pure L1 hit
        assert b.stats.shared_hits == 1 and b.stats.misses == 0
        assert b.get("k") is pipeline
        assert b.stats.hits == 1

    def test_cross_server_hits_distinguish_publisher(self):
        directory = SharedCacheDirectory(capacity=8)
        a = PipelineCache(capacity=1, shared=directory)
        b = PipelineCache(capacity=4, shared=directory)
        a.put("k", _Fake(1), cost=0.1)
        a.put("k2", _Fake(2), cost=0.1)  # evicts k from a's L1
        assert a.get("k") is not None  # served out of the directory ...
        assert a.stats.shared_hits == 1
        # ... but a fetch by the publisher itself is not cross-server
        assert directory.stats.cross_server_hits == 0
        b.get("k")
        assert directory.stats.cross_server_hits == 1

    def test_l1_eviction_demotes_to_directory(self):
        directory = SharedCacheDirectory(capacity=8)
        cache = PipelineCache(capacity=1, shared=directory)
        cache.put("k1", _Fake(1), cost=0.1)
        cache.put("k2", _Fake(2), cost=0.1)
        assert "k1" not in cache and "k1" in directory
        assert cache.get("k1") is not None  # refetchable after demotion
        # demotion is bookkeeping, not a redundant compile
        assert directory.stats.redundant_compiles == 0

    def test_directory_publish_is_first_writer_wins(self):
        directory = SharedCacheDirectory(capacity=8)
        a = PipelineCache(capacity=4, shared=directory)
        b = PipelineCache(capacity=4, shared=directory)
        first = _Fake(1)
        assert a.put("k", first, cost=0.1) is first
        # b compiled the same shape concurrently: its put must adopt the
        # directory's canonical object, and b's L1 must store that one
        assert b.put("k", _Fake(2), cost=0.1) is first
        assert b.get("k") is first
        assert directory.stats.redundant_compiles == 1

    def test_directory_applies_its_own_eviction(self):
        directory = SharedCacheDirectory(capacity=2, policy="cost_aware")
        cache = PipelineCache(capacity=8, shared=directory)
        cache.put("gpu", _Fake(1), cost=0.2)
        cache.put("cpu1", _Fake(2), cost=0.025)
        cache.put("cpu2", _Fake(3), cost=0.025)  # directory overflows
        assert len(directory) == 2
        assert "gpu" in directory  # the expensive entry survived
        assert directory.stats.evictions == 1

    def test_two_engines_share_compilations(self):
        """Engine-level promotion: B never compiles what A already
        published, and the answers stay identical to the reference."""
        directory = SharedCacheDirectory(capacity=256)
        cfg = ExecutionConfig.hybrid(3, [0, 1], block_tuples=4096)
        engines = []
        for _ in range(2):
            engine = Proteus(segment_rows=2048, shared_cache=directory)
            load_ssb(engine, tables=ssb_tables())
            engines.append(engine)
        a, b = engines
        expected = sorted(reference_rows("Q3.1"))
        result_a = a.query(ssb_query("Q3.1"), cfg)
        assert a.pipeline_cache.stats.misses > 0  # cold fleet: A compiles
        result_b = b.query(ssb_query("Q3.1"), cfg)
        # B compiled nothing: every stage was served by the directory
        assert b.pipeline_cache.stats.misses == 0
        assert b.pipeline_cache.stats.shared_hits > 0
        assert directory.stats.cross_server_hits > 0
        assert sorted(result_a.rows) == expected
        assert sorted(result_b.rows) == expected

    def test_shared_cache_without_l1_is_rejected(self):
        with pytest.raises(ValueError):
            Proteus(segment_rows=1024, cache_policy=None,
                    shared_cache=SharedCacheDirectory())


class TestEvictionDecisionsArePinned:
    """Every promotion, demotion and victim of a mixed two-tier trace.

    Two L1 caches (one per eviction rule) share a cost-aware directory;
    a seeded stream of ~500 gets and puts over keys of mixed compile
    cost and source size overflows all three tiers.  Every 50 calls the
    eviction order of each tier and its hit/miss/eviction/shared/
    cross-server counters are hashed: a change to either rule's
    arithmetic, tie-breaking or aging floor moves a digest.
    """

    #: recorded with the pluggable-policy implementation this one replaced
    DIGESTS = [
        "b4e1098b43f1eb00", "fb248c97e7c5a1bf", "3a38c31d3b701e91",
        "7947bc2b7fa831c5", "093fce549555ffa6", "96f266110375a222",
        "0e86646a847ee5bc", "8f6144dc54397950", "b235faff2f9678f6",
        "7b79409f9f6d7d2b",
    ]

    def _digests(self, calls=500, every=50, seed=33):
        rng = random.Random(seed)
        directory = SharedCacheDirectory(capacity=12, policy="cost_aware")
        l1 = [
            PipelineCache(capacity=6, policy="lru", shared=directory),
            PipelineCache(capacity=6, policy="cost_aware", shared=directory),
        ]
        shapes = {
            f"k{i}": (rng.choice((0.025, 0.05, 0.2)),
                      rng.choice((100, 400, 1600, 4000)))
            for i in range(30)
        }
        names = sorted(shapes)
        digests = []
        for call in range(1, calls + 1):
            cache = l1[rng.choice((0, 1))]
            key = names[min(int(rng.expovariate(1 / 8)), len(names) - 1)]
            if rng.random() < 0.6:
                cache.get(key)
            else:
                cost, size = shapes[key]
                cache.put(key, _Fake(key, size), cost=cost)
            if call % every == 0:
                state = [
                    (tier.keys(), tier.stats.hits, tier.stats.misses,
                     tier.stats.evictions, tier.stats.shared_hits,
                     tier.stats.cross_server_hits)
                    for tier in (*l1, directory)
                ]
                digests.append(
                    hashlib.sha256(repr(state).encode()).hexdigest()[:16])
        return digests, l1, directory

    def test_trace_is_pinned(self):
        digests, l1, directory = self._digests()
        # the trace exercises promotion, demotion and directory eviction
        assert all(cache.stats.shared_hits > 0 for cache in l1)
        assert all(cache.stats.evictions > 0 for cache in l1)
        assert directory.stats.evictions > 0
        assert directory.stats.cross_server_hits > 0
        assert digests == self.DIGESTS


class TestFirstWriterWinsCompilation:
    """The racing-compile regression at the two-phase compilation level."""

    def test_racing_begin_compilation_converges_on_one_object(self):
        """Two identical plans admitted together on a cold server both
        compile fresh (each is charged), but finish() converges both on
        the FIRST published pipeline — concurrent sessions never hold
        distinct function objects for one shape."""
        engine = _engine()
        config = ExecutionConfig.cpu_only(2, block_tuples=512)
        first = engine.executor.begin_compilation(
            engine.placer.place(_plan(), config))
        second = engine.executor.begin_compilation(
            engine.placer.place(_plan(), config))
        assert first.fresh_count == second.fresh_count > 0
        racing_fresh = second.fresh_count
        pipelines_first = first.finish()
        pipelines_second = second.finish()
        published = set(map(id, pipelines_first.values()))
        for pipeline in pipelines_second.values():
            assert id(pipeline) in published
        assert engine.pipeline_cache.stats.redundant_compiles == racing_fresh


class TestReviewRegressions:
    """Pin the accounting edge cases found in review."""

    def test_self_evicted_insert_leaves_no_phantom_entry_hits(self):
        """An entry whose own insertion evicts it (lowest cost-aware
        score on a full cache) must not linger in entry_hits: snapshot
        residency would otherwise contradict size forever."""
        cache = PipelineCache(capacity=1, policy="cost_aware")
        cache.put("expensive", _Fake(1), cost=10.0)
        cache.get("expensive")
        cache.put("cheap", _Fake(2), cost=0.001)  # inserted, then victim
        assert "cheap" not in cache and "expensive" in cache
        snap = cache.snapshot()
        assert snap["size"] == 1
        assert {e["entry"] for e in snap["top_entries"]} == {"expensive"}
        assert set(cache.stats.entry_hits) == {"expensive"}

    def test_enabled_but_empty_cache_still_reported(self):
        """An empty PipelineCache is falsy (defines __len__); the batch
        report must test identity, not truthiness, or an enabled cache
        with only-miss history disappears from the report."""
        engine = _engine()
        report = EngineServer(engine=engine).run()  # no sessions, cache untouched
        assert report.cache != {}
        assert report.cache["capacity"] == 128
