"""Executor tests over hand-built stage graphs.

The placer only emits source -> consumer shapes; these tests build richer
DAGs by hand to exercise the executor paths the paper describes but SSB
plans do not reach: GPU *mid*-stages whose packed outputs return to the
CPU through the gpu2cpu asynchronous queue, hash-pack producers feeding a
hash-routed consumer, and the locality invariant under transfers.
"""

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
from repro.engine.config import ExecutionConfig
from repro.engine.executor import Executor
from repro.hardware.costmodel import CostModel
from repro.hardware.sim import Simulator
from repro.hardware.specs import PAPER_SERVER
from repro.hardware.topology import DeviceType, Server
from repro.memory.managers import BlockManagerSet
from repro.storage import Catalog, Column, DataType, Table

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
