"""Tests for the reference executor and execution configurations."""

import dataclasses
import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from repro.engine import reference
from repro.engine.executor import Executor
from repro.engine.reference import ReferenceExecutor
from repro.jit.cache import PipelineCache, SharedCacheDirectory
from repro.jit.codegen import PipelineCompiler
from repro.memory.managers import BlockManagerSet
from repro.ssb import SSB_QUERY_IDS
from repro.storage import Catalog
from repro.storage import Column, DataType, Table
from scenario import reference_rows


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


def _join_pairs(build_keys, probe_keys):
    """(probe row, build row) of every match, as ReferenceExecutor joins."""
    tables = {
        "probe": Table("probe", [
            Column.from_values("pk", DataType.INT64, probe_keys),
            Column.from_values("prow", DataType.INT64, range(len(probe_keys))),
        ]),
        "build": Table("build", [
            Column.from_values("bk", DataType.INT64, build_keys),
            Column.from_values("brow", DataType.INT64, range(len(build_keys))),
        ]),
    }
    plan = scan("probe", ["pk", "prow"]).join(
        scan("build", ["bk", "brow"]), probe_key="pk", build_key="bk",
        payload=["brow"])
    return [(prow, brow) for _, prow, brow in ReferenceExecutor(tables).execute(plan)]


def _dict_join(build_keys, probe_keys):
    """The same join through a dict: the oracle's own oracle."""
    row_of = {}
    for row, key in enumerate(build_keys):
        if key in row_of:
            raise ValueError("duplicate build keys")
        row_of[key] = row
    return [(i, row_of[key]) for i, key in enumerate(probe_keys) if key in row_of]


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _int64(value: int) -> int:
    """``value`` wrapped into int64, as NumPy arithmetic wraps it."""
    return (value + 2**63) % 2**64 - 2**63


def _direct_address(build_keys) -> bool:
    """Whether the oracle looks these build keys up by direct address."""
    span = max(build_keys) - min(build_keys) + 1
    return span < (reference._DIRECT_SLOTS_PER_ROW * len(build_keys)
                   + reference._DIRECT_SLOTS_FLOOR)


@st.composite
def _join_inputs(draw, keys):
    build = draw(st.lists(keys, max_size=40, unique=True))
    if build and draw(st.integers(0, 4)) == 0:
        build.insert(draw(st.integers(0, len(build))), draw(st.sampled_from(build)))
    low, high = (min(build), max(build)) if build else (0, 0)
    # hits, misses inside the span, misses just and far outside it, and
    # both int64 limits; a key past a limit wraps, as NumPy would wrap it
    outside = [_int64(k) for k in (low - 1, high + 1, low - 2**41, high + 2**41,
                                   _INT64_MIN, _INT64_MAX, low ^ -(2**63))]
    probe_key = st.one_of(keys, st.sampled_from(build or [0]), st.sampled_from(outside))
    return build, draw(st.lists(probe_key, max_size=60))


class TestReferenceJoinPaths:
    """Both build-key lookups against a dict join: direct address over a
    span of at most 60 001 keys, also at either int64 limit, and sorted
    search over keys up to ±2^40."""

    @pytest.mark.parametrize("keys,direct", [
        (st.integers(-30_000, 30_000), True),
        (st.integers(-(2**40), 2**40), False),
        (st.integers(_INT64_MIN, _INT64_MIN + 30_000), True),
        (st.integers(_INT64_MAX - 30_000, _INT64_MAX), True),
    ], ids=["direct-address", "sorted-search", "direct-int64-min", "direct-int64-max"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_join_matches_a_dict_join(self, keys, direct, data):
        build, probe = data.draw(_join_inputs(keys))
        if build:
            assume(_direct_address(build) == direct)
        try:
            expected = _dict_join(build, probe)
        except ValueError:
            with pytest.raises(ValueError, match="duplicate build keys"):
                _join_pairs(build, probe)
            return
        assert _join_pairs(build, probe) == expected

    @pytest.mark.parametrize("build,direct,key", [
        ([7, 5, 7, 5], True, 5),
        ([0, 2**40, -(2**40), 2**40, 0], False, 0),
    ], ids=["direct-address", "sorted-search"])
    def test_duplicate_build_key_rejected_on_either_path(self, build, direct, key):
        """Both paths name the smallest repeated key, not the first seen."""
        assert _direct_address(build) == direct
        with pytest.raises(ValueError, match=f"duplicate build keys in reference "
                                             f"join on 'bk': key {key} repeats$"):
            _join_pairs(build, [5, 0])

    @pytest.mark.parametrize("build", [
        [_INT64_MIN, _INT64_MIN + 2, _INT64_MIN + 5],
        [_INT64_MAX - 5, _INT64_MAX - 2, _INT64_MAX],
    ], ids=["int64-min", "int64-max"])
    def test_int64_limits_on_the_direct_path(self, build):
        assert _direct_address(build)
        probe = [_INT64_MIN, _INT64_MIN + 1, _INT64_MIN + 2, _INT64_MIN + 5,
                 _INT64_MIN + 6, -1, 0, 1, _INT64_MAX - 6, _INT64_MAX - 5,
                 _INT64_MAX - 2, _INT64_MAX - 1, _INT64_MAX]
        probe += [_int64(k ^ -(2**63)) for k in probe]
        pairs = _join_pairs(build, probe)
        assert pairs == _dict_join(build, probe)
        assert {row for _, row in pairs} == {0, 1, 2}

    def test_empty_build_or_probe_joins_nothing(self):
        assert _join_pairs([], [1, 2, 3]) == []
        assert _join_pairs([1, 2, 3], []) == []
        assert _join_pairs([0, 2**40], []) == []
        assert _join_pairs([], []) == []


_EDGE_KEYS = [_INT64_MIN, _INT64_MIN + 1, -1, 0, 1, _INT64_MAX - 1, _INT64_MAX]


@st.composite
def _key_matrix(draw):
    """1-4 int64 key columns: small values that repeat, the int64 limits,
    and values anywhere in int64, whose spans overflow a mixed-radix code."""
    width = draw(st.integers(1, 4))
    value = st.one_of(st.integers(-3, 3), st.sampled_from(_EDGE_KEYS),
                      st.integers(_INT64_MIN, _INT64_MAX))
    rows = draw(st.lists(st.tuples(*[value] * width), min_size=1, max_size=50))
    rows += draw(st.lists(st.sampled_from(rows), max_size=20))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(max_examples=300, deadline=None)
@given(matrix=_key_matrix())
@example(matrix=np.array([[_INT64_MIN, 0, _INT64_MAX, -1]], dtype=np.int64))
@example(matrix=np.array([[_INT64_MIN, _INT64_MAX, _INT64_MIN, _INT64_MAX],
                          [_INT64_MAX, _INT64_MIN, _INT64_MAX, _INT64_MIN],
                          [_INT64_MIN, _INT64_MAX, _INT64_MIN, _INT64_MAX],
                          [0, -1, 1, _INT64_MIN + 1]], dtype=np.int64))
def test_grouping_matches_unique_key_rows(matrix):
    """The oracle's folded 1-D code groups rows as the row-wise unique does:
    the same groups in the same order, and the same group per row."""
    expected_keys, expected_inverse = np.unique(matrix, axis=0, return_inverse=True)
    inverse, keys = reference._groups(list(matrix.T))
    assert np.array_equal(inverse, expected_inverse.ravel())
    assert np.array_equal(np.stack(keys, axis=1), expected_keys)


#: sha256 of repr(rows) per SSB query at SF 0.01, seed 42, recorded when
#: every join was a sorted search and every selection a boolean mask
_ORACLE_DIGESTS = {
    "Q1.1": "db80d4bfb17f73cbe27f70cca5ad71c0549d1b59084793d82038db09a6ed5be6",
    "Q1.2": "f8c6a4ff54cdb46703ae3812e4704ac0f902f0f1dc6250be2234c9d376562994",
    "Q1.3": "4a30f3b57e7fd7ef94ea5f3eb921bd3185e77de257f1753225c907c95166e524",
    "Q2.1": "7aed2feac482d86b0651b581c69809ef9646a5fac2f3a8dfaeb361ef4bea5890",
    "Q2.2": "f3657ca249a213d3756fd9aaebedff100900789c7b893983a9bba9da84f470ec",
    "Q2.3": "bead569752e4de3c99cb80e640b8c31fa9870e06d3285d55ba729ddc719c84c8",
    "Q3.1": "1838840d1e7fd26aac6ceae6c168ceaf8f4f08b3787b393dfd8f854d07b7c0b6",
    "Q3.2": "9f4cc7910d5aeb2b23b4f468fa6913bb903ffee4814f2f6b145ff9a050980955",
    "Q3.3": "eaa4cbd3edde1493bc341fb787435f6bee7cf07b7fca0f10204a23d421db1bf3",
    "Q3.4": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "Q4.1": "781b0a3945d6d0888b5fc3517e94ad249da9fea79028687ec42b1a7e9e25bde3",
    "Q4.2": "d0a8a6ba824412d629e544e6b8564c0230498f25e54c5556b14ac6c38cb51477",
    "Q4.3": "c6c890f5a86d75fbd973b526495b4b7128b3d6b812d9c26a4e7a755e1d8eaf51",
}


@pytest.mark.parametrize("qid", SSB_QUERY_IDS)
def test_ssb_oracle_rows_are_pinned(qid):
    rows = reference_rows(qid, 0.01, 42)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _ORACLE_DIGESTS[qid]


#: the same at SF 0.05, seed 7 (up to 280 groups a query), recorded when
#: every group-by sorted its key rows with ``np.unique(..., axis=0)``
_ORACLE_DIGESTS_SF005_SEED7 = {
    "Q1.1": "887938f85d66eac9ab97863b62b78d88581b074cf235899733aac9d70740d7f8",
    "Q1.2": "653ca6d21da5d7a7ed6d37cbcf68bd32701192369aa5a45c24535e9a2375c364",
    "Q1.3": "d06bb8780a7af0def9b99f01b23a53661095a251ceb7951c6a74b5e6fc7edb72",
    "Q2.1": "f38d08ea0b29199d5ad016a28227ee00a328851997426c4027643c63ff9621d3",
    "Q2.2": "e9fa49d3ed41ffc4ede1e3f3774c00e7a3209be41572775e1f4da76a11a4106b",
    "Q2.3": "22ac9f8edfd0dabd075c859cc05de62a960ad0cce715537bdc9f0da529738d43",
    "Q3.1": "1e4efc88bf335fcaca96b35aa28ea265ac5ad1d894880ca51574d5a97b3a6d1d",
    "Q3.2": "be385f828ec9e83539dff1ac24605bada03493b92efb7110e7d5a43b8d7fe95e",
    "Q3.3": "546fc848abd6cfef1fbcb893b63154cf48285628598d5bb05c00b8600b1e92d9",
    "Q3.4": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "Q4.1": "0d9f046acbf78d4fe5ac15fbae0fd1a9cb874fb301d501fb06c817bb17d2d1b8",
    "Q4.2": "57586da063d5525824c7cbebc9e94b82c02f35e01e42158f333f1f1d7ef75f34",
    "Q4.3": "955cdf7979fd981a1ef8f8205e802f8191073e5fc2b5e56e1f351b4c78b3b5d1",
}


@pytest.mark.parametrize("qid", SSB_QUERY_IDS)
def test_ssb_oracle_rows_are_pinned_at_sf005_seed7(qid):
    rows = reference_rows(qid, 0.05, 7)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == _ORACLE_DIGESTS_SF005_SEED7[qid]


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
        generator (ROADMAP item 4) has to cover.
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
        assert _fields(CachePolicy) == ["capacity", "eviction"]
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
            "PipelineCache": ["capacity", "policy", "shared"],
            "SharedCacheDirectory": ["capacity", "policy"],
            "Router": [
                "sim", "producer", "groups", "policy", "broadcast", "name",
                "query_id",
            ],
        }
        with pytest.raises(TypeError):
            PipelineCompiler(widths={}, cache=None)
