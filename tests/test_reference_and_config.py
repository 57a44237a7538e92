"""Tests for the reference executor and execution configurations."""

import dataclasses
import inspect

import pytest

from repro import (
    CachePolicy,
    ElasticPolicy,
    EngineFleet,
    EngineServer,
    ExecutionConfig,
    Proteus,
    RetryPolicy,
)
from repro.algebra.expressions import col
from repro.algebra.logical import OrderSpec, agg_count, agg_max, agg_min, agg_sum, scan
from repro.algebra.placer import HeterogeneousPlacer
from repro.core.mem_move import MemMove
from repro.core.router import Router
from repro.core.segmenter import Segmenter
from repro.engine.executor import Executor
from repro.engine.reference import ReferenceExecutor
from repro.jit.cache import PipelineCache, SharedCacheDirectory
from repro.jit.codegen import PipelineCompiler
from repro.memory.managers import BlockManagerSet
from repro.storage import Catalog
from repro.storage import Column, DataType, Table


@pytest.fixture
def tables():
    fact = Table("fact", [
        Column.from_values("k", DataType.INT32, [1, 2, 3, 1, 2, 9]),
        Column.from_values("v", DataType.INT64, [10, 20, 30, 40, 50, 60]),
    ])
    dim = Table("dim", [
        Column.from_values("dk", DataType.INT32, [1, 2, 3]),
        Column.from_strings("name", ["one", "two", "three"]),
    ])
    return {"fact": fact, "dim": dim}


class TestReferenceExecutor:
    def test_scalar_aggregates(self, tables):
        plan = scan("fact", ["v"]).reduce([
            agg_sum(col("v"), "s"), agg_count("n"),
            agg_min(col("v"), "lo"), agg_max(col("v"), "hi"),
        ])
        values = ReferenceExecutor(tables).scalar(plan)
        assert values == {"s": 210.0, "n": 6, "lo": 10.0, "hi": 60.0}

    def test_scalar_on_empty_input(self, tables):
        plan = (scan("fact", ["v"]).filter(col("v") > 999)
                .reduce([agg_sum(col("v"), "s"), agg_count("n"),
                         agg_min(col("v"), "lo")]))
        values = ReferenceExecutor(tables).scalar(plan)
        assert values == {"s": 0.0, "n": 0, "lo": None}

    def test_join_drops_misses_and_decodes(self, tables):
        plan = (scan("fact", ["k", "v"])
                .join(scan("dim", ["dk", "name"]), probe_key="k",
                      build_key="dk", payload=["name"]))
        rows = ReferenceExecutor(tables).execute(plan)
        # key 9 has no dimension match
        assert len(rows) == 5
        assert (1, 10, "one") in rows

    def test_join_duplicate_build_keys_rejected(self, tables):
        dup = Table("dup", [Column.from_values("dk", DataType.INT32, [1, 1])])
        executor = ReferenceExecutor({**tables, "dup": dup})
        plan = scan("fact", ["k", "v"]).join(scan("dup", ["dk"]),
                                             probe_key="k", build_key="dk",
                                             payload=[])
        with pytest.raises(ValueError, match="duplicate build keys"):
            executor.execute(plan)

    def test_group_by_with_order_and_limit(self, tables):
        plan = (scan("fact", ["k", "v"])
                .groupby(["k"], [agg_sum(col("v"), "s")])
                .order_by(OrderSpec("s", ascending=False))
                .take(2))
        rows = ReferenceExecutor(tables).execute(plan)
        assert rows == [(2, 70.0), (9, 60.0)]

    def test_scalar_requires_reduce_root(self, tables):
        with pytest.raises(TypeError):
            ReferenceExecutor(tables).scalar(scan("fact", ["v"]))


class TestExecutionConfig:
    def test_constructors(self):
        assert ExecutionConfig.cpu_only(8).devices[0].value == "cpu"
        assert ExecutionConfig.gpu_only([0]).uses_gpu
        hybrid = ExecutionConfig.hybrid(4, [0, 1])
        assert hybrid.is_hybrid
        assert "4 CPU worker(s)" in hybrid.describe()

    def test_no_compute_units_rejected(self):
        with pytest.raises(ValueError, match="no compute units"):
            ExecutionConfig(cpu_workers=0, gpu_ids=())

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfig(cpu_workers=-1, gpu_ids=(0,))

    def test_bare_requires_exactly_one_unit(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExecutionConfig(cpu_workers=2, bare=True)
        with pytest.raises(ValueError, match="exactly one"):
            ExecutionConfig(cpu_workers=1, gpu_ids=(0,), bare=True)
        assert ExecutionConfig.bare_cpu().bare
        assert ExecutionConfig.bare_gpu(1).gpu_ids == (1,)

    def test_block_tuples_validated(self):
        with pytest.raises(ValueError):
            ExecutionConfig.cpu_only(1, block_tuples=0)

    def test_duplicate_gpu_ids_rejected(self):
        """A repeated id used to construct, then die mid-run with a
        DuplicateKeyError (and charge two gpu_units for one device)."""
        with pytest.raises(ValueError, match="gpu id 0"):
            ExecutionConfig.gpu_only([0, 0], block_tuples=4096)
        with pytest.raises(ValueError, match="gpu id 1"):
            ExecutionConfig.hybrid(2, [0, 1, 1])
        with pytest.raises(ValueError, match="gpu id 0"):
            ExecutionConfig.gpu_only([0, 1]).derive(gpu_ids=(0, 0))

    def test_frozen(self):
        config = ExecutionConfig.cpu_only(2)
        with pytest.raises(Exception):
            config.cpu_workers = 5


def _parameters(cls) -> list[str]:
    return [
        p.name
        for p in inspect.signature(cls.__init__).parameters.values()
        if p.name != "self" and p.kind is not p.VAR_KEYWORD
    ]


def _fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


class TestConfigurationSurface:
    def test_surface_only_grows_on_purpose(self):
        """The exact option names of the serving stack.

        Adding one shows up here as a one-line diff, to be justified by
        the rule ISSUE 13 audited the surface with: "a new option is
        justified when two callers that are not tests or examples need
        different values"; with one value in use it is a constant.
        Every independent option doubles the space the scenario
        generator (ROADMAP item 5) has to cover.
        """
        assert _parameters(EngineServer) == [
            "engine",
            "budget",
            "max_concurrent",
            "compile_seconds",
            "admission",
            "preemption",
            "backfill_limit",
            "max_queue_depth",
            "elastic",
            "elastic_policy",
            "min_dop",
            "max_dop",
            "target_utilization",
            "fault_plan",
            "retry_policy",
            "tenants",
        ]
        assert _parameters(Proteus) == [
            "spec",
            "segment_rows",
            "cache_policy",
            "shared_cache",
            "sim",
        ]
        assert _parameters(EngineFleet) == [
            "num_servers",
            "replication",
            "failover",
            "breaker",
            "probe_interval_seconds",
            "fault_plan",
            "server_kwargs",
        ]
        assert _fields(ExecutionConfig) == [
            "cpu_workers",
            "gpu_ids",
            "bare",
            "block_tuples",
            "prefetch_depth",
        ]
        assert _fields(CachePolicy) == ["capacity", "eviction", "top_entries"]
        assert _fields(ElasticPolicy) == [
            "min_dop",
            "max_dop",
            "target_utilization",
            "grow_below",
            "window_seconds",
        ]
        assert _fields(RetryPolicy) == ["max_attempts", "fallback_cpu_workers"]

    def test_data_plane_surface_only_grows_on_purpose(self):
        """The same pin for the constructors below the scheduler (ISSUE 14
        took six parameters out of them; the rule above puts one back)."""
        assert {
            cls.__name__: _parameters(cls)
            for cls in (
                PipelineCompiler, BlockManagerSet, Segmenter, MemMove, Executor,
                Catalog, HeterogeneousPlacer, PipelineCache,
                SharedCacheDirectory, Router,
            )
        } == {
            "PipelineCompiler": ["widths"],
            "BlockManagerSet": ["server"],
            "Segmenter": ["catalog", "table", "columns", "block_tuples"],
            "MemMove": [
                "sim", "server", "blocks", "cost", "prefetch_depth",
                "straggler", "dma_timeout",
            ],
            "Executor": [
                "sim", "server", "catalog", "blocks", "cost", "pipeline_cache",
            ],
            "Catalog": ["server", "segment_rows"],
            "HeterogeneousPlacer": ["server", "catalog", "optimize_join_order"],
            "PipelineCache": ["capacity", "policy", "shared", "top_entries"],
            "SharedCacheDirectory": ["capacity", "policy"],
            "Router": [
                "sim", "producer", "groups", "policy", "broadcast", "name",
                "query_id",
            ],
        }
        with pytest.raises(TypeError):
            PipelineCompiler(widths={}, cache=None)
