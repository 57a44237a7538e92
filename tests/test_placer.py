"""Unit tests for the heterogeneity-aware placer and plan validation."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.algebra.expressions import col
from repro.algebra.logical import agg_sum, scan
from repro.algebra.physical import (
    OpBuildSink,
    OpFilter,
    OpPackSink,
    OpProbe,
    OpReduceSink,
    OpUnpack,
    PlanValidationError,
    RouterPolicy,
    Stage,
    validate_stage_graph,
)
from repro.algebra.placer import HeterogeneousPlacer, PlacementError
from repro.engine.config import ExecutionConfig
from repro.hardware.sim import Simulator
from repro.hardware.specs import PAPER_SERVER
from repro.hardware.topology import DeviceType, Server
from repro.storage import Catalog, Column, DataType, Table


@pytest.fixture
def setup():
    sim = Simulator()
    server = Server.paper_machine(sim)
    catalog = Catalog(server, segment_rows=64)
    catalog.register(Table("fact", [
        Column.from_values("k", DataType.INT32, np.arange(200) % 40),
        Column.from_values("v", DataType.INT64, np.arange(200)),
    ]))
    catalog.register(Table("dim", [
        Column.from_values("dk", DataType.INT32, np.arange(40)),
        Column.from_values("g", DataType.INT32, np.arange(40) % 5),
    ]))
    return server, catalog, HeterogeneousPlacer(server, catalog)


def _join_plan():
    return (scan("fact", ["k", "v"])
            .join(scan("dim", ["dk", "g"]).filter(col("dk") < 30),
                  probe_key="k", build_key="dk", payload=["g"])
            .groupby(["g"], [agg_sum(col("v"), "s")]))


class TestDecomposition:
    def test_simple_reduce_plan(self, setup):
        _, _, placer = setup
        plan = scan("fact", ["v"]).reduce([agg_sum(col("v"), "s")])
        het = placer.place(plan, ExecutionConfig.cpu_only(4))
        assert len(het.phases) == 1
        phase = het.phases[0]
        assert len(phase.stages) == 2  # segmenter + CPU consumer
        sink = phase.stages[1].ops[-1]
        assert isinstance(sink, OpReduceSink)
        assert het.collect.scalar

    def test_join_produces_build_phase(self, setup):
        _, _, placer = setup
        het = placer.place(_join_plan(), ExecutionConfig.cpu_only(4))
        assert [p.name for p in het.phases] == ["build-ht0", "probe"]
        assert het.phases[0].produces_ht == "ht0"
        assert het.phases[1].consumes_ht == ["ht0"]
        build_sink = het.phases[0].stages[1].ops[-1]
        assert isinstance(build_sink, OpBuildSink)

    def test_build_phase_broadcasts(self, setup):
        _, _, placer = setup
        het = placer.place(_join_plan(), ExecutionConfig.hybrid(4, [0, 1]))
        build = het.phases[0]
        assert all(e.broadcast for e in build.edges)
        assert all(e.policy == RouterPolicy.TARGET for e in build.edges)
        probe = het.phases[1]
        assert all(e.policy == RouterPolicy.LOAD_BALANCE for e in probe.edges)
        assert not any(e.broadcast for e in probe.edges)

    def test_join_in_build_side_rejected(self, setup):
        _, _, placer = setup
        inner = scan("dim", ["dk", "g"]).join(
            scan("fact", ["k", "v"]), probe_key="dk", build_key="k")
        plan = scan("fact", ["k", "v"]).join(inner, probe_key="k", build_key="dk")
        with pytest.raises(PlacementError, match="build sides"):
            placer.place(plan, ExecutionConfig.cpu_only(2))


class TestDeviceStages:
    def test_cpu_only_has_no_gpu_stage(self, setup):
        _, _, placer = setup
        het = placer.place(_join_plan(), ExecutionConfig.cpu_only(6))
        devices = {s.device for s in het.all_stages() if not s.is_source}
        assert devices == {DeviceType.CPU}

    def test_gpu_only_consumers_on_gpu(self, setup):
        _, _, placer = setup
        het = placer.place(_join_plan(), ExecutionConfig.gpu_only([0, 1]))
        consumers = [s for s in het.all_stages() if not s.is_source]
        assert {s.device for s in consumers} == {DeviceType.GPU}
        assert all(s.dop == 2 for s in consumers)
        # sources (segmenters) always run on the CPU
        assert all(s.device is DeviceType.CPU for s in het.all_stages()
                   if s.is_source)

    def test_hybrid_has_one_stage_per_device_type(self, setup):
        _, _, placer = setup
        het = placer.place(_join_plan(), ExecutionConfig.hybrid(8, [1]))
        probe = het.phases[1]
        devices = [s.device for s in probe.stages if not s.is_source]
        assert sorted(d.value for d in devices) == ["cpu", "gpu"]
        gpu_stage = next(s for s in probe.stages if s.device is DeviceType.GPU)
        assert gpu_stage.affinity == [1]

    def test_cpu_affinity_interleaves_sockets(self, setup):
        server, _, placer = setup
        het = placer.place(_join_plan(), ExecutionConfig.cpu_only(4))
        cpu_stage = next(s for s in het.phases[1].stages
                         if s.device is DeviceType.CPU and not s.is_source)
        sockets = [server.cores[c].socket_id for c in cpu_stage.affinity]
        assert sockets == [0, 1, 0, 1]

    def test_too_many_workers_rejected(self, setup):
        _, _, placer = setup
        with pytest.raises(PlacementError, match="cores"):
            placer.place(_join_plan(), ExecutionConfig.cpu_only(25))

    def test_unknown_gpu_rejected(self, setup):
        _, _, placer = setup
        with pytest.raises(PlacementError, match="GPU"):
            placer.place(_join_plan(), ExecutionConfig.gpu_only([7]))


#: sha256 of repr([cpu_affinity or PlacementError text for 1..48 workers])
#: per (sockets, cores per socket), recorded before the loop bound was hoisted
_AFFINITY_DIGESTS = {
    (2, 12): "591bc56e3ca0201a072312f71dba244c0d04a77a2f7ee72529f40bcf10ec15e4",
    (1, 4): "aaa6f946ee13cee451541ad717125900975fb60021dc3d51d4c1a1c3308e42b4",
    (3, 5): "797565c5bb2c0c86bf392782a1b9bc24eacc61db4c8b9436caf8b3506863810b",
    (4, 12): "0b2af65af5daeb4cb69e9adb82c1dea97ee3d3e21e4119cf0955d485c083b821",
}


@pytest.mark.parametrize("sockets,cores", list(_AFFINITY_DIGESTS))
def test_cpu_affinity_is_pinned_for_1_to_48_workers(sockets, cores):
    spec = dataclasses.replace(
        PAPER_SERVER, num_sockets=sockets, cores_per_socket=cores,
        num_gpus=0, gpus_per_socket=(0,) * sockets,
    )
    server = Server(Simulator(), spec)
    placer = HeterogeneousPlacer(server, Catalog(server))
    placements = []
    for workers in range(1, 49):
        try:
            placements.append(placer.cpu_affinity(ExecutionConfig.cpu_only(workers)))
        except PlacementError as error:
            placements.append(str(error))
    digest = hashlib.sha256(repr(placements).encode()).hexdigest()
    assert digest == _AFFINITY_DIGESTS[(sockets, cores)]
    total = sockets * cores
    assert sorted(placements[total - 1]) == list(range(total))
    if total < 48:
        assert placements[total] == (f"requested {total + 1} CPU workers but "
                                     f"the server has {total} cores")


class TestBareMode:
    def test_bare_has_no_routers_or_memmoves(self, setup):
        _, _, placer = setup
        het = placer.place(_join_plan(), ExecutionConfig.bare_cpu())
        for edge in het.all_edges():
            assert edge.policy == RouterPolicy.UNION
            assert not edge.mem_move
        assert all(s.dop == 1 for s in het.all_stages())

    def test_bare_gpu_stages_target_gpu(self, setup):
        _, _, placer = setup
        het = placer.place(_join_plan(), ExecutionConfig.bare_gpu(1))
        consumers = [s for s in het.all_stages() if not s.is_source]
        assert {s.device for s in consumers} == {DeviceType.GPU}
        assert all(s.affinity == [1] for s in consumers)


class TestValidation:
    def test_placer_output_always_validates(self, setup):
        _, _, placer = setup
        for config in (ExecutionConfig.cpu_only(3),
                       ExecutionConfig.gpu_only([0]),
                       ExecutionConfig.hybrid(2, [0, 1])):
            het = placer.place(_join_plan(), config)
            validate_stage_graph(het)  # must not raise

    def test_missing_unpack_detected(self):
        stage = Stage("bad", DeviceType.CPU,
                      ops=[OpFilter(col("a") > 1), OpReduceSink([])])
        from repro.algebra.physical import HetPlan, Phase, CollectSpec
        plan = HetPlan(
            phases=[Phase("p", [stage], [])],
            collect=CollectSpec([], [], scalar=True),
        )
        with pytest.raises(PlanValidationError, match="unpack"):
            validate_stage_graph(plan)

    def test_missing_sink_detected(self):
        stage = Stage("bad", DeviceType.CPU,
                      ops=[OpUnpack(["a"]), OpFilter(col("a") > 1)])
        from repro.algebra.physical import HetPlan, Phase, CollectSpec
        plan = HetPlan(phases=[Phase("p", [stage], [])],
                       collect=CollectSpec([], [], scalar=True))
        with pytest.raises(PlanValidationError, match="sink"):
            validate_stage_graph(plan)

    def test_probe_before_build_detected(self):
        from repro.algebra.physical import HetPlan, Phase, CollectSpec
        stage = Stage("probe", DeviceType.CPU,
                      ops=[OpUnpack(["k"]), OpProbe("ht9", "k", []),
                           OpReduceSink([])])
        plan = HetPlan(phases=[Phase("p", [stage], [])],
                       collect=CollectSpec([], [], scalar=True))
        with pytest.raises(PlanValidationError, match="before any"):
            validate_stage_graph(plan)

    def test_hash_routing_requires_hash_pack(self):
        from repro.algebra.physical import ExchangeEdge, HetPlan, Phase, CollectSpec
        producer = Stage("p", DeviceType.CPU,
                         ops=[OpUnpack(["a"]), OpPackSink(["a"])])
        consumer = Stage("c", DeviceType.CPU,
                         ops=[OpUnpack(["a"]), OpReduceSink([])])
        edge = ExchangeEdge(producer, consumer, policy=RouterPolicy.HASH)
        plan = HetPlan(
            phases=[Phase("p", [producer, consumer], [edge])],
            collect=CollectSpec([], [], scalar=True),
        )
        with pytest.raises(PlanValidationError, match="hash-pack"):
            validate_stage_graph(plan)


class TestPlacementValidation:
    """dop/affinity vs the server's units: a typed error, not IndexError.

    The elastic controller clamps grow requests against exactly these
    limits; before this validation an oversized dop surfaced as a bare
    ``IndexError`` deep in ``Executor._instances_for``.
    """

    @staticmethod
    def _single_stage_plan(stage):
        from repro.algebra.physical import CollectSpec, HetPlan, Phase

        return HetPlan(phases=[Phase("p", [stage], [])],
                       collect=CollectSpec([], [], scalar=True))

    def test_cpu_dop_beyond_core_count_rejected(self):
        from repro.algebra.physical import validate_placement

        stage = Stage("probe", DeviceType.CPU,
                      ops=[OpUnpack(["k"]), OpReduceSink([])], dop=64)
        with pytest.raises(PlanValidationError, match="24 CPU cores"):
            validate_placement(self._single_stage_plan(stage), 24, 2)

    def test_gpu_dop_beyond_gpu_count_rejected(self):
        from repro.algebra.physical import validate_placement

        stage = Stage("probe", DeviceType.GPU,
                      ops=[OpUnpack(["k"]), OpReduceSink([])], dop=3)
        with pytest.raises(PlanValidationError, match="2 GPUs"):
            validate_placement(self._single_stage_plan(stage), 24, 2)

    def test_out_of_range_affinity_rejected(self):
        from repro.algebra.physical import validate_placement

        stage = Stage("probe", DeviceType.CPU,
                      ops=[OpUnpack(["k"]), OpReduceSink([])],
                      dop=2, affinity=[0, 99])
        with pytest.raises(PlanValidationError, match=r"\[99\]"):
            validate_placement(self._single_stage_plan(stage), 24, 2)

    def test_affinity_length_mismatch_rejected(self):
        from repro.algebra.physical import validate_placement

        stage = Stage("probe", DeviceType.CPU,
                      ops=[OpUnpack(["k"]), OpReduceSink([])],
                      dop=3, affinity=[0])
        with pytest.raises(PlanValidationError, match="affinity"):
            validate_placement(self._single_stage_plan(stage), 24, 2)

    def test_executor_raises_typed_error_not_indexerror(self, setup):
        """A hand-built plan with an oversized dop fails at the plan
        level when handed to the executor, instead of crashing mid-
        execution in the instance spawner."""
        from repro.engine.executor import Executor
        from repro.hardware.costmodel import CostModel
        from repro.memory.managers import BlockManagerSet

        from repro.algebra.physical import (
            CollectSpec, ExchangeEdge, HetPlan, Phase, SegmentSource,
        )

        server, catalog, _ = setup
        executor = Executor(server.sim, server, catalog,
                            BlockManagerSet(server),
                            CostModel(server.spec))
        source = Stage("seg", DeviceType.CPU, ops=[OpPackSink(["v"])],
                       source=SegmentSource("fact", ["v"]))
        consumer = Stage("probe", DeviceType.CPU,
                         ops=[OpUnpack(["v"]), OpReduceSink([])], dop=64)
        plan = HetPlan(
            phases=[Phase("p", [source, consumer],
                          [ExchangeEdge(source, consumer)])],
            collect=CollectSpec([], [], scalar=True),
        )
        with pytest.raises(PlanValidationError, match="CPU cores"):
            executor.execute(plan, ExecutionConfig.cpu_only(4))

    def test_sources_are_exempt(self):
        """Segmenters are control-plane only; their dop never spawns
        pinned instances and is not checked against the core count."""
        from repro.algebra.physical import (
            SegmentSource, validate_stage_placement,
        )

        source = Stage("seg", DeviceType.CPU, ops=[OpPackSink(["v"])],
                       source=SegmentSource("fact", ["v"]), dop=1)
        validate_stage_placement(source, 0, 0)  # must not raise


class TestJoinOrderOptimization:
    def test_most_selective_probe_first(self, setup):
        _, catalog, placer = setup
        catalog.register(Table("dim2", [
            Column.from_values("ek", DataType.INT32, np.arange(200) % 40),
        ]))
        # dim filtered to 25% vs dim2 unfiltered; both spill/cached equal
        plan = (scan("fact", ["k", "v"])
                .join(scan("dim2", ["ek"]).filter(col("ek") >= 0),
                      probe_key="k", build_key="ek", payload=[])
                .join(scan("dim", ["dk"]).filter(col("dk") < 10),
                      probe_key="k", build_key="dk", payload=[])
                .reduce([agg_sum(col("v"), "s")]))
        het = placer.place(plan, ExecutionConfig.cpu_only(2))
        probe_stage = next(s for s in het.phases[-1].stages if not s.is_source)
        probes = [op for op in probe_stage.ops if isinstance(op, OpProbe)]
        # ht ids are assigned root-first: ht0 = dim (selectivity 0.25),
        # ht1 = dim2 (selectivity 1.0); the selective probe moves first,
        # ahead of dim2's plan-order position
        assert [p.ht_id for p in probes] == ["ht0", "ht1"]

    def test_reordering_can_be_disabled(self, setup):
        server, catalog, _ = setup
        placer = HeterogeneousPlacer(server, catalog, optimize_join_order=False)
        catalog.register(Table("dim2", [
            Column.from_values("ek", DataType.INT32, np.arange(200) % 40),
        ]))
        plan = (scan("fact", ["k", "v"])
                .join(scan("dim2", ["ek"]), probe_key="k", build_key="ek",
                      payload=[])
                .join(scan("dim", ["dk"]).filter(col("dk") < 10),
                      probe_key="k", build_key="dk", payload=[])
                .reduce([agg_sum(col("v"), "s")]))
        het = placer.place(plan, ExecutionConfig.cpu_only(2))
        probe_stage = next(s for s in het.phases[-1].stages if not s.is_source)
        probes = [op for op in probe_stage.ops if isinstance(op, OpProbe)]
        # plan order preserved: dim2 (joined first, deepest) probes first
        assert [p.ht_id for p in probes] == ["ht1", "ht0"]
