"""Unit tests for device providers and JIT code generation."""

import numpy as np
import pytest

from repro import ExecutionConfig, Proteus, agg_count, agg_sum, scan
from repro.algebra.expressions import col, lit
from repro.algebra.logical import AggSpec
from repro.algebra.physical import (
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
from repro.hardware.topology import DeviceType
from repro.jit.codegen import CodegenError, PipelineCompiler
from repro.jit.pipeline import QueryState
from repro.jit.provider import CPUProvider, GPUProvider, provider_for
from repro.engine.reference import ReferenceExecutor
from repro.ssb import load_ssb
from scenario import ssb_tables


class TestProviders:
    def test_singletons(self):
        assert provider_for(DeviceType.CPU) is provider_for(DeviceType.CPU)
        assert isinstance(provider_for(DeviceType.GPU), GPUProvider)

    def test_thread_geometry_differs(self):
        cpu, gpu = CPUProvider(), GPUProvider()
        assert cpu.threads_in_worker() == "1"
        assert cpu.thread_id_in_worker() == "0"
        assert gpu.threads_in_worker() == "_threads_in_worker"
        namespace = gpu.runtime_namespace()
        assert namespace["_threads_in_worker"] == gpu.grid_size * gpu.block_size

    def test_accumulate_rendering_differs(self):
        cpu, gpu = CPUProvider(), GPUProvider()
        cpu_lines = cpu.emit_accumulate("x", "value")
        gpu_lines = gpu.emit_accumulate("x", "value")
        # CPU: the atomic is optimised out (plain +=)
        assert cpu_lines == ["state.acc['x'] += value"]
        # GPU: neighbourhood reduce then a worker-scoped atomic
        assert any("_neighborhood_reduce" in line for line in gpu_lines)
        assert any("_atomic_add" in line for line in gpu_lines)

    def test_min_max_accumulate(self):
        cpu = CPUProvider()
        assert "min(" in cpu.emit_accumulate("m", "v", "min")[0]
        gpu = GPUProvider()
        assert "_atomic_min" in gpu.emit_accumulate("m", "v", "min")[1]

    def test_compile_and_load_roundtrip(self):
        provider = CPUProvider()
        source = "def f(x):\n    return x + 1\n"
        code = provider.convert_to_machine_code(source, "test")
        fn = provider.load_machine_code(code, "f")
        assert fn(41) == 42

    def test_gpu_namespace_has_intrinsics(self):
        namespace = GPUProvider().runtime_namespace()
        for name in ("_neighborhood_reduce", "_atomic_add", "_atomic_min",
                     "_atomic_max", "np"):
            assert name in namespace

    def test_optimize_collapses_blank_lines(self):
        provider = CPUProvider()
        assert provider.optimize("a\n\n\n\nb\n") == "a\n\nb\n"


def _compile(ops, device=DeviceType.CPU, widths=None):
    stage = Stage("test-stage", device, ops=ops)
    return PipelineCompiler(widths=widths or {}).compile_stage(stage)


def _run(pipeline, columns, **state_kw):
    state = pipeline.new_state(QueryState(), "cpu", block_tuples=1 << 20)
    for key, value in state_kw.items():
        setattr(state, key, value)
    stats = state.stats
    outputs = pipeline.fn(state, columns, stats)
    return state, stats, outputs


class TestCodegen:
    def test_filter_reduce_pipeline(self):
        pipeline = _compile([
            OpUnpack(["a", "b"]),
            OpFilter(col("b") > 10),
            OpReduceSink([AggSpec("sum", col("a"), "total")]),
        ])
        cols = {"a": np.arange(100, dtype=np.int64),
                "b": np.arange(100, dtype=np.int64)}
        state, stats, outputs = _run(pipeline, cols)
        assert state.acc["total"] == float(np.arange(100)[np.arange(100) > 10].sum())
        assert outputs == []
        assert stats.tuples_in == 100
        assert stats.cpu_cycles > 0 and stats.gpu_ops > 0

    def test_source_differs_by_provider(self):
        def ops():
            return [
                OpUnpack(["a"]),
                OpReduceSink([AggSpec("sum", col("a"), "s")]),
            ]
        cpu = _compile(ops(), DeviceType.CPU)
        gpu = _compile(ops(), DeviceType.GPU)
        assert "state.acc['s'] +=" in cpu.source
        assert "_atomic_add" in gpu.source
        assert "_neighborhood_reduce" in gpu.source
        assert "PTX" in gpu.source and "x86" in cpu.source

    def test_gpu_pipeline_computes_same_result(self):
        def ops():
            return [
                OpUnpack(["a"]),
                OpFilter(col("a") % 1 == 0) if False else OpFilter(col("a") > 5),
                OpReduceSink([AggSpec("sum", col("a"), "s")]),
            ]
        cols = {"a": np.arange(50, dtype=np.int64)}
        cpu_pipeline = _compile(ops(), DeviceType.CPU)
        gpu_pipeline = _compile(ops(), DeviceType.GPU)
        cpu_state, _, _ = _run(cpu_pipeline, dict(cols))
        gpu_state = gpu_pipeline.new_state(QueryState(), "gpu:0", 1 << 20)
        gpu_pipeline.fn(gpu_state, dict(cols), gpu_state.stats)
        assert cpu_state.acc["s"] == gpu_state.acc["s"]

    def test_project_extends_tuples(self):
        pipeline = _compile([
            OpUnpack(["a", "b"]),
            OpProject([("c", col("a") * col("b"))]),
            OpReduceSink([AggSpec("sum", col("c"), "s")]),
        ])
        cols = {"a": np.array([2, 3], dtype=np.int64),
                "b": np.array([5, 7], dtype=np.int64)}
        state, _, _ = _run(pipeline, cols)
        assert state.acc["s"] == 31.0

    def test_count_and_minmax(self):
        pipeline = _compile([
            OpUnpack(["a"]),
            OpReduceSink([
                AggSpec("count", col("__count__"), "n"),
                AggSpec("min", col("a"), "lo"),
                AggSpec("max", col("a"), "hi"),
            ]),
        ])
        cols = {"a": np.array([5, -2, 9], dtype=np.int64)}
        state, _, _ = _run(pipeline, cols)
        assert state.acc == {"n": 3, "lo": -2.0, "hi": 9.0}

    def test_build_and_probe_via_state(self):
        build = _compile([
            OpUnpack(["dk", "g"]),
            OpBuildSink("ht0", "dk", ["g"]),
        ])
        probe = _compile([
            OpUnpack(["k", "v"]),
            OpProbe("ht0", "k", ["g"]),
            OpGroupAggSink(["g"], [AggSpec("sum", col("v"), "s")]),
        ])
        query = QueryState()
        query.create_hash_table("ht0", "cpu", 16, ["g"])
        build_state = build.new_state(query, "cpu", 1 << 20)
        build.fn(build_state, {"dk": np.arange(10, dtype=np.int64),
                               "g": (np.arange(10) % 2).astype(np.int64)},
                 build_state.stats)
        probe_state = probe.new_state(query, "cpu", 1 << 20)
        probe.fn(probe_state,
                 {"k": np.array([0, 1, 2, 99], dtype=np.int64),
                  "v": np.array([10, 20, 30, 40], dtype=np.int64)},
                 probe_state.stats)
        assert probe_state.groups.rows() == [(0, 40.0), (1, 20.0)]
        # the missing key 99 was dropped; random accesses = 4 probe lookups
        # (charged pre-drop); the tiny group table stays cache-resident
        assert probe_state.stats.random_accesses == 4

    def test_spilled_flag_controls_random_bytes(self):
        probe = _compile([
            OpUnpack(["k"]),
            OpProbe("ht0", "k", []),
            OpReduceSink([AggSpec("count", col("__count__"), "n")]),
        ])
        for spilled, expect_random in ((True, True), (False, False)):
            query = QueryState()
            query.create_hash_table("ht0", "cpu", 16, [])
            query.hash_tables[("ht0", "cpu")].insert(np.arange(4, dtype=np.int64))
            query.spilled[("ht0", "cpu")] = spilled
            state = probe.new_state(query, "cpu", 1 << 20)
            probe.fn(state, {"k": np.arange(4, dtype=np.int64)}, state.stats)
            assert (state.stats.random_bytes > 0) is expect_random

    def test_pack_sink_emits_blocks(self):
        pipeline = _compile([
            OpUnpack(["a"]),
            OpFilter(col("a") >= 2),
            OpPackSink(["a"]),
        ])
        state = pipeline.new_state(QueryState(), "cpu", block_tuples=3)
        outputs = pipeline.fn(state, {"a": np.arange(10, dtype=np.int64)},
                              state.stats)
        assert [len(b["a"]) for b in outputs] == [3, 3]
        rest = state.packer.flush()
        assert [len(b["a"]) for b in rest] == [2]
        values = [v for block in outputs + rest for v in block["a"]]
        assert values == list(range(2, 10))

    def test_hash_pack_sink_partitions(self):
        pipeline = _compile([
            OpUnpack(["k", "v"]),
            OpHashPackSink("k", 4, ["k", "v"]),
        ])
        state = pipeline.new_state(QueryState(), "cpu", block_tuples=2)
        k = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        outputs = pipeline.fn(state, {"k": k, "v": k * 10}, state.stats)
        outputs += state.hash_packer.flush()
        for partition, block in outputs:
            assert np.all(block["k"] % 4 == partition)
        total = sum(len(b["v"]) for _, b in outputs)
        assert total == 5

    def test_liveness_prunes_dead_columns(self):
        pipeline = _compile([
            OpUnpack(["a", "b", "unused"]),
            OpFilter(col("b") > 0),
            OpReduceSink([AggSpec("sum", col("a"), "s")]),
        ])
        # the dead column is bound once but never compressed
        assert pipeline.source.count("c_unused = cols['unused']") == 1
        assert "c_unused = c_unused[" not in pipeline.source
        assert "c_unused = c_unused.take(" not in pipeline.source
        # ... while the live one is
        assert "c_a = c_a.take(_sel)" in pipeline.source

    @pytest.mark.parametrize("value", [True, False])
    def test_constant_predicate_is_folded(self, value):
        pipeline = _compile([
            OpUnpack(["a"]),
            OpFilter(lit(value)),
            OpReduceSink([AggSpec("sum", col("a"), "s"),
                          AggSpec("count", col("__count__"), "n")]),
        ])
        # never a .nonzero() on a Python bool
        assert ".nonzero()" not in pipeline.source
        state, stats, _ = _run(pipeline, {"a": np.arange(10, dtype=np.int64)})
        assert (state.acc["s"], state.acc["n"]) == ((45.0, 10) if value else (0.0, 0))
        assert stats.tuples_in == 10

    def test_source_stage_not_compilable(self):
        from repro.algebra.physical import SegmentSource
        stage = Stage("seg", DeviceType.CPU, ops=[OpPackSink(["a"])],
                      source=SegmentSource("t", ["a"]))
        with pytest.raises(CodegenError, match="segmenter"):
            PipelineCompiler().compile_stage(stage)

    def test_stats_byte_accounting_uses_widths(self):
        pipeline = _compile(
            [OpUnpack(["a"]), OpReduceSink([AggSpec("sum", col("a"), "s")])],
            widths={"a": 4},
        )
        state, stats, _ = _run(pipeline, {"a": np.arange(10, dtype=np.int64)})
        assert stats.bytes_in == 40  # 10 tuples x declared 4-byte width


# -- aggregate aliases that are not identifiers ---------------------------------

_ALIAS_CONFIGS = {
    "cpu": ExecutionConfig.cpu_only(4),
    "gpu": ExecutionConfig.gpu_only([0, 1]),
    "hybrid": ExecutionConfig.hybrid(4, [0, 1]),
}
_LINEORDER = ["lo_orderdate", "lo_quantity", "lo_revenue", "lo_discount"]
_ALIAS_PLANS = {
    "reduce": scan("lineorder", _LINEORDER).reduce([
        agg_sum(col("lo_revenue"), "total-revenue"),
        # sanitise to the same identifier as the first alias
        agg_sum(col("lo_quantity"), "total_revenue"),
        agg_count("row count"),
    ]),
    "group": scan("lineorder", _LINEORDER).groupby(["lo_discount"], [
        agg_sum(col("lo_revenue"), "a-b"),
        agg_sum(col("lo_quantity"), "a_b"),
        agg_count("n!"),
    ]).order_by("lo_discount"),
}


@pytest.mark.parametrize("plan", sorted(_ALIAS_PLANS))
@pytest.mark.parametrize("label", sorted(_ALIAS_CONFIGS))
def test_aliases_that_are_not_identifiers_keep_their_own_accumulators(label, plan):
    tables = ssb_tables()
    engine = Proteus(segment_rows=4096)
    load_ssb(engine, tables=tables)
    result = engine.query(_ALIAS_PLANS[plan], _ALIAS_CONFIGS[label])
    expected = ReferenceExecutor(tables).execute(_ALIAS_PLANS[plan])
    assert result.rows == expected
    # the two sums that sanitise alike are two different columns
    assert all(row[-3] != row[-2] for row in result.rows)
