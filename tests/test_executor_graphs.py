"""Executor tests over hand-built stage graphs.

The placer only emits source -> consumer shapes; these tests build richer
DAGs by hand to exercise the executor paths the paper describes but SSB
plans do not reach: GPU *mid*-stages whose packed outputs return to the
CPU through the gpu2cpu asynchronous queue, hash-pack producers feeding a
hash-routed consumer, and the locality invariant under transfers.
"""

import dataclasses
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.algebra.expressions import col
from repro.algebra.logical import AggSpec
from repro.algebra.physical import (
    CollectSpec,
    ExchangeEdge,
    HetPlan,
    OpFilter,
    OpGroupAggSink,
    OpHashPackSink,
    OpPackSink,
    OpReduceSink,
    OpUnpack,
    Phase,
    RouterPolicy,
    SegmentSource,
    Stage,
    validate_stage_graph,
)
from repro import Proteus
from repro.engine.config import ExecutionConfig
from repro.engine.executor import Executor
from repro.hardware.costmodel import CostModel
from repro.hardware.sim import Simulator
from repro.hardware.specs import PAPER_SERVER
from repro.hardware.topology import DeviceType, Server
from repro.jit.codegen import PipelineCompiler
from repro.memory.managers import BlockManagerSet
from repro.ssb import SSB_QUERY_IDS, load_ssb, ssb_query
from repro.storage import Catalog, Column, DataType, Table
from scenario import reference_rows, ssb_tables

N = 20_000


@pytest.fixture
def env():
    sim = Simulator()
    server = Server.paper_machine(sim)
    catalog = Catalog(server, segment_rows=2048)
    rng = np.random.default_rng(3)
    catalog.register(Table("t", [
        Column.from_values("k", DataType.INT64, rng.integers(0, 64, N)),
        Column.from_values("v", DataType.INT64, rng.integers(0, 100, N)),
    ]))
    executor = Executor(sim, server, catalog, BlockManagerSet(server),
                        CostModel(PAPER_SERVER))
    return catalog, executor


def _source():
    return Stage("seg", DeviceType.CPU, ops=[OpPackSink(["k", "v"])],
                 source=SegmentSource("t", ["k", "v"]))


def test_gpu_midstage_returns_through_gpu2cpu(env):
    """GPU filter stage -> packed blocks -> gpu2cpu -> CPU reducer."""
    catalog, executor = env
    source = _source()
    gpu_filter = Stage("filter-gpu", DeviceType.GPU,
                       ops=[OpUnpack(["k", "v"]),
                            OpFilter(col("v") >= 50),
                            OpPackSink(["v"])],
                       dop=2, affinity=[0, 1])
    cpu_reduce = Stage("reduce-cpu", DeviceType.CPU,
                       ops=[OpUnpack(["v"]),
                            OpReduceSink([AggSpec("sum", col("v"), "s")])],
                       dop=4, affinity=[0, 12, 1, 13])
    phase = Phase("only", [source, gpu_filter, cpu_reduce], [
        ExchangeEdge(source, gpu_filter, policy=RouterPolicy.LOAD_BALANCE),
        ExchangeEdge(gpu_filter, cpu_reduce, policy=RouterPolicy.LOAD_BALANCE),
    ])
    plan = HetPlan([phase], CollectSpec([], [AggSpec("sum", col("v"), "s")],
                                        scalar=True))
    validate_stage_graph(plan)
    raw = executor.execute(plan, ExecutionConfig.hybrid(4, [0, 1],
                                                        block_tuples=1024))
    total = sum(p["s"] for p in raw.reduce_partials)
    values = catalog.table("t").column("v").values
    assert total == float(values[values >= 50].sum())
    # the mid-stage really ran on GPUs and kernels were launched
    assert raw.profile.kernels_launched > 0
    assert raw.profile.device_stats["gpu"].tuples_in == N


def test_hash_pack_producer_feeds_hash_router(env):
    """CPU hash-pack stage -> hash-routed group-agg consumers.

    Verifies the hash-pack invariant end to end: every consumer instance
    sees only its own partitions, and the union of all groups equals the
    ungrouped answer.
    """
    catalog, executor = env
    source = _source()
    packer = Stage("hashpack-cpu", DeviceType.CPU,
                   ops=[OpUnpack(["k", "v"]),
                        OpHashPackSink("k", 8, ["k", "v"])],
                   dop=2, affinity=[0, 12])
    grouper = Stage("group-cpu", DeviceType.CPU,
                    ops=[OpUnpack(["k", "v"]),
                         OpGroupAggSink(["k"], [AggSpec("sum", col("v"), "s")])],
                    dop=4, affinity=[1, 13, 2, 14])
    phase = Phase("only", [source, packer, grouper], [
        ExchangeEdge(source, packer, policy=RouterPolicy.LOAD_BALANCE),
        ExchangeEdge(packer, grouper, policy=RouterPolicy.HASH),
    ])
    plan = HetPlan([phase], CollectSpec(["k"],
                                        [AggSpec("sum", col("v"), "s")]))
    validate_stage_graph(plan)
    raw = executor.execute(plan, ExecutionConfig.cpu_only(6, block_tuples=512))
    # each key lands in exactly one partial (hash partitioning is disjoint)
    seen = {}
    for groups in raw.group_partials:
        for key, total in groups.rows():
            assert key not in seen, f"key {key} split across consumers"
            seen[key] = total
    table = catalog.table("t")
    k, v = table.column("k").values, table.column("v").values
    for key in np.unique(k):
        assert seen[int(key)] == float(v[k == key].sum())


def test_locality_invariant_blocks_always_local_when_processed(env):
    """No pipeline ever reads a block that is not local to its device —
    the mem-move contract (paper Section 3.2)."""
    catalog, executor = env
    from repro.engine import executor as executor_module

    processed = []
    original = executor_module.Executor._charge

    def recording_charge(self, instance, handle, delta, uva):
        processed.append((handle.node_id, instance.node_id,
                          instance.device.value))
        return original(self, instance, handle, delta, uva)

    executor_module.Executor._charge = recording_charge
    try:
        source = _source()
        gpu_stage = Stage("sum-gpu", DeviceType.GPU,
                          ops=[OpUnpack(["v"]),
                               OpReduceSink([AggSpec("sum", col("v"), "s")])],
                          dop=2, affinity=[0, 1])
        phase = Phase("only", [source, gpu_stage], [
            ExchangeEdge(source, gpu_stage, policy=RouterPolicy.LOAD_BALANCE),
        ])
        plan = HetPlan([phase], CollectSpec([], [AggSpec("sum", col("v"), "s")],
                                            scalar=True))
        executor.execute(plan, ExecutionConfig.gpu_only([0, 1],
                                                        block_tuples=1024))
    finally:
        executor_module.Executor._charge = original
    assert processed
    for block_node, instance_node, device in processed:
        if device == "gpu":
            assert block_node == instance_node, (
                f"GPU pipeline read non-local block: {block_node} on "
                f"{instance_node}")


def test_waves_run_independent_builds_concurrently(env):
    """Two independent build phases share one wave; the consumer waits."""
    catalog, executor = env
    from repro.algebra.physical import OpBuildSink, OpProbe

    def build_phase(ht_id):
        source = _source()
        build = Stage(f"build-{ht_id}", DeviceType.CPU,
                      ops=[OpUnpack(["k", "v"]), OpBuildSink(ht_id, "k", [])],
                      dop=1, affinity=[0])
        return Phase(f"b-{ht_id}", [source, build],
                     [ExchangeEdge(source, build,
                                   policy=RouterPolicy.LOAD_BALANCE)],
                     produces_ht=ht_id)

    plan = HetPlan([build_phase("htA"), build_phase("htB")],
                   CollectSpec([], [], scalar=True))
    waves = Executor._waves(plan)
    assert len(waves) == 1 and len(waves[0]) == 2

    # probe phase must land in a later wave
    source = _source()
    probe = Stage("probe", DeviceType.CPU,
                  ops=[OpUnpack(["k", "v"]), OpProbe("htA", "k", []),
                       OpReduceSink([])], dop=1, affinity=[1])
    plan.phases.append(Phase("probe", [source, probe],
                             [ExchangeEdge(source, probe,
                                           policy=RouterPolicy.LOAD_BALANCE)],
                             consumes_ht=["htA"]))
    waves = Executor._waves(plan)
    assert len(waves) == 2
    assert [p.name for p in waves[1]] == ["probe"]


# -- morsels: a coarse block cut for the CPU group -----------------------------


def _record_morsels(monkeypatch):
    """Count pipeline runs per input block and record every morsel's
    charge.  Returns ``(runs, work, charged)``: runs and the stats delta
    of each block's pipeline run, keyed by the block's column dict, and
    each :class:`~repro.core.router.Morsels` with its ``(block, delta)``
    charges."""
    runs, work, charged, alive = Counter(), {}, defaultdict(list), []
    compile_stage = PipelineCompiler.compile_stage

    def counted(self, stage):
        pipeline = compile_stage(self, stage)
        fn = pipeline.fn

        def run(state, columns, stats):
            before = dataclasses.astuple(stats)
            outputs = fn(state, columns, stats)
            alive.append(columns)  # ids stay unique while recorded
            runs[id(columns)] += 1
            work[id(columns)] = [
                after - was for after, was in zip(dataclasses.astuple(stats), before)
            ]
            return outputs

        return dataclasses.replace(pipeline, fn=run)

    charge = Executor._charge

    def recording(self, instance, handle, delta, uva):
        if handle.morsels is not None:
            charged[handle.morsels].append((id(handle.block.columns), delta))
        return charge(self, instance, handle, delta, uva)

    monkeypatch.setattr(PipelineCompiler, "compile_stage", counted)
    monkeypatch.setattr(Executor, "_charge", recording)
    return runs, work, charged


def test_a_cut_block_runs_its_pipeline_once_and_charges_its_shares(monkeypatch):
    """Hybrid SSB at 65 536-row blocks: the probe router cuts blocks for
    the 4-core group.  A cut block runs the generated pipeline once, its
    k morsels each charge a share that sums to the block's work, and
    every query's rows equal the reference."""
    runs, work, charged = _record_morsels(monkeypatch)
    engine = Proteus(segment_rows=4096)
    load_ssb(engine, tables=ssb_tables(0.01, 42))
    config = ExecutionConfig.hybrid(4, [0, 1], block_tuples=65536)
    for query in SSB_QUERY_IDS:
        plan = ssb_query(query)
        got, want = engine.query(plan, config).rows, reference_rows(query, 0.01, 42)
        if not plan.order:
            got, want = sorted(got), sorted(want)
        assert got == want, query
    assert charged, "no block was cut"
    for morsels, charges in charged.items():
        blocks = {block for block, _ in charges}
        assert len(charges) == morsels.k > 1 and len(blocks) == 1
        (block,) = blocks
        assert runs[block] == 1
        assert all(delta is morsels.share for _, delta in charges)
        total = np.array(dataclasses.astuple(morsels.share)) * morsels.k
        assert total == pytest.approx(work[block], rel=1e-12)


def test_a_cut_block_emits_its_outputs_once(env, monkeypatch):
    """A filter keeping every row, packed at the block size, returns one
    output block per input block: each leaves exactly once, from the
    last of its morsels."""
    catalog, executor = env
    catalog.set_logical_scale("t", 1000.0)  # one core >= 2x one GPU
    runs, _, charged = _record_morsels(monkeypatch)
    emitted = []
    emit = Executor._emit

    def recording(self, outputs, *args):
        if outputs:
            emitted.append(outputs)
        return emit(self, outputs, *args)

    monkeypatch.setattr(Executor, "_emit", recording)
    source = _source()

    def keep_all(name, device, dop, affinity):
        return Stage(name, device,
                     ops=[OpUnpack(["k", "v"]), OpFilter(col("v") >= 0),
                          OpPackSink(["k", "v"])],
                     dop=dop, affinity=affinity)

    cpu = keep_all("keep-cpu", DeviceType.CPU, 4, [0, 12, 1, 13])
    gpu = keep_all("keep-gpu", DeviceType.GPU, 2, [0, 1])
    phase = Phase("only", [source, cpu, gpu], [
        ExchangeEdge(source, cpu, policy=RouterPolicy.LOAD_BALANCE),
        ExchangeEdge(source, gpu, policy=RouterPolicy.LOAD_BALANCE),
    ])
    raw = executor.execute(HetPlan([phase], CollectSpec([], [])),
                           ExecutionConfig.hybrid(4, [0, 1], block_tuples=2048))
    assert charged and all(len(c) == m.k > 1 for m, c in charged.items())
    assert sum(runs.values()) == len(emitted) == -(-N // 2048)
    assert len({id(outputs) for outputs in emitted}) == len(emitted)
    assert sum(len(block["v"]) for block in raw.row_blocks) == N
    values = catalog.table("t").column("v").values
    assert sum(int(block["v"].sum()) for block in raw.row_blocks) == int(values.sum())
