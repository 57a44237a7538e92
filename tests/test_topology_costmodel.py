"""Unit tests for server topology and the cost model."""

import math
from dataclasses import replace

import pytest

from repro.hardware.costmodel import (
    CYCLES,
    DBMS_C_TUNING,
    DBMS_G_TUNING,
    DEFAULT_COMPILE_SECONDS,
    PROTEUS_TUNING,
    BlockStats,
    CostModel,
)
from repro.hardware.sim import Simulator
from repro.hardware.specs import PAPER_SERVER, ServerSpec
from repro.hardware.topology import DeviceType, Server


class TestSpecs:
    def test_paper_server_shape(self):
        spec = PAPER_SERVER
        assert spec.total_cores == 24
        assert spec.num_gpus == 2
        assert spec.aggregate_pcie_bandwidth == pytest.approx(24e9)
        assert spec.aggregate_gpu_memory == pytest.approx(16e9)

    def test_gpus_per_socket_validation(self):
        with pytest.raises(ValueError):
            ServerSpec(gpus_per_socket=(2, 1))
        with pytest.raises(ValueError):
            ServerSpec(num_sockets=1, gpus_per_socket=(1, 1))

    def test_scaled_override(self):
        spec = PAPER_SERVER.scaled(num_gpus=4, gpus_per_socket=(2, 2))
        assert spec.num_gpus == 4
        assert PAPER_SERVER.num_gpus == 2  # original untouched


class TestTopology:
    def _server(self):
        return Server.paper_machine(Simulator())

    def test_construction(self):
        server = self._server()
        assert len(server.cores) == 24
        assert len(server.gpus) == 2
        assert set(server.memory_nodes) == {"cpu:0", "cpu:1", "gpu:0", "gpu:1"}
        assert server.gpus[0].socket_id == 0
        assert server.gpus[1].socket_id == 1

    def test_socket_of(self):
        server = self._server()
        assert server.socket_of("cpu:1") == 1
        assert server.socket_of("gpu:0") == 0

    def test_memory_node_capacity(self):
        server = self._server()
        node = server.memory_nodes["gpu:0"]
        node.allocate(7e9)
        with pytest.raises(MemoryError):
            node.allocate(2e9)
        node.free(7e9)
        node.allocate(2e9)

    def test_custom_topology(self):
        spec = ServerSpec(num_sockets=2, cores_per_socket=8, num_gpus=4,
                          gpus_per_socket=(2, 2))
        server = Server(Simulator(), spec)
        assert len(server.cores) == 16
        assert len(server.gpus) == 4
        assert server.sockets[0].gpu_ids == [0, 1]


class TestPaths:
    """Multi-path interconnect enumeration (NUMA hop vs. direct PCIe)."""

    def _server(self):
        return Server.paper_machine(Simulator())

    def test_local_path_is_free(self):
        server = self._server()
        paths = server.paths_between("cpu:0", "cpu:0")
        assert len(paths) == 1
        assert paths[0].is_local
        model = CostModel(PAPER_SERVER)
        assert model.transfer_demand(1e9, paths[0]) == 0.0

    def test_same_socket_cpu_to_gpu_single_direct_path(self):
        server = self._server()
        paths = server.paths_between("cpu:0", "gpu:0")
        assert [p.key for p in paths] == ["pcie"]
        path = paths[0]
        assert [link.name for link in path.links] == ["pcie:0"]
        assert [d.node_id for d in path.drams] == ["cpu:0"]
        assert path.setups == 1 and not path.peer_dma

    def test_cross_socket_cpu_to_gpu_enumerates_both_routes(self):
        server = self._server()
        paths = server.paths_between("cpu:1", "gpu:0")
        assert [p.key for p in paths] == ["qpi-direct", "numa-hop:cpu:0"]
        direct, hop = paths
        assert direct.peer_dma and direct.setups == 1
        assert {link.name for link in direct.links} == {"qpi:0-1", "pcie:0"}
        assert [d.node_id for d in direct.drams] == ["cpu:1"]
        # the NUMA hop bounces through the GPU-side socket's arena:
        # full pinned rate, second DRAM touch, second DMA setup
        assert not hop.peer_dma and hop.setups == 2
        assert [d.node_id for d in hop.drams] == ["cpu:1", "cpu:0"]

    def test_gpu_to_gpu_routes_choose_the_bounce_socket(self):
        server = self._server()
        paths = server.paths_between("gpu:0", "gpu:1")
        assert [p.key for p in paths] == [
            "host-bounce:cpu:0", "host-bounce:cpu:1",
        ]
        for path in paths:
            assert path.setups == 2 and path.peer_dma
            assert {link.name for link in path.links} == {
                "pcie:0", "qpi:0-1", "pcie:1",
            }

    def test_cpu_to_cpu_crosses_qpi(self):
        server = self._server()
        paths = server.paths_between("cpu:0", "cpu:1")
        assert [p.key for p in paths] == ["qpi"]
        assert [link.name for link in paths[0].links] == ["qpi:0-1"]
        assert [d.node_id for d in paths[0].drams] == ["cpu:0", "cpu:1"]

    def test_queue_depth_reflects_in_flight_dma(self):
        server = self._server()
        path = server.paths_between("cpu:0", "gpu:0")[0]
        assert path.queue_depth == 0
        server.gpus[0].link.bandwidth.submit(1e9, rate_cap=12e9, label="bg")
        assert path.queue_depth == 1


class TestTransferDemand:
    """Path pricing: contention-dependent, deterministic, calibrated."""

    def _env(self):
        server = Server.paper_machine(Simulator())
        return server, CostModel(PAPER_SERVER)

    def test_idle_direct_path_prices_setup_plus_wire_time(self):
        server, model = self._env()
        path = server.paths_between("cpu:0", "gpu:0")[0]
        expected = PAPER_SERVER.dma_setup_seconds + 1e9 / 12e9
        assert model.transfer_demand(1e9, path) == pytest.approx(expected)

    def test_remote_read_path_pays_the_peer_dma_cap(self):
        server, model = self._env()
        direct, hop = server.paths_between("cpu:1", "gpu:0")
        d = model.transfer_demand(1e9, direct)
        h = model.transfer_demand(1e9, hop)
        assert d == pytest.approx(
            PAPER_SERVER.dma_setup_seconds + 1e9 / PAPER_SERVER.qpi_peer_dma_cap
        )
        assert h == pytest.approx(
            2 * PAPER_SERVER.dma_setup_seconds + 1e9 / 12e9
        )
        # big idle transfer: the NUMA hop's full pinned rate wins
        assert h < d

    def test_tiny_transfers_prefer_the_single_setup_route(self):
        server, model = self._env()
        direct, hop = server.paths_between("cpu:1", "gpu:0")
        nbytes = 10_000  # wire time ~1 us << the extra 5 us setup
        assert model.transfer_demand(nbytes, direct) < \
            model.transfer_demand(nbytes, hop)

    def test_contention_raises_the_loaded_route_price(self):
        server, model = self._env()
        _, hop = server.paths_between("cpu:1", "gpu:0")
        idle = model.transfer_demand(1e9, hop)
        for _ in range(8):
            server.memory_nodes["cpu:0"].bandwidth.submit(
                1e9, rate_cap=5.6e9, label="bg"
            )
        assert model.transfer_demand(1e9, hop) > idle

    def test_scale_inflates_the_estimate(self):
        server, model = self._env()
        path = server.paths_between("cpu:0", "gpu:0")[0]
        unit = model.transfer_demand(1e6, path, scale=1.0)
        scaled = model.transfer_demand(1e6, path, scale=1000.0)
        assert scaled > 500 * unit

    def test_estimate_is_deterministic(self):
        server, model = self._env()
        path = server.paths_between("cpu:1", "gpu:0")[0]
        assert model.transfer_demand(1e8, path) == \
            model.transfer_demand(1e8, path)

    def test_pageable_engines_capped_on_every_path(self):
        server, _ = self._env()
        dbms_g = CostModel(PAPER_SERVER, DBMS_G_TUNING)
        path = server.paths_between("cpu:0", "gpu:0")[0]
        assert dbms_g.path_rate_cap(path) == pytest.approx(5e9)


class TestCostModel:
    def _stats(self, **kw):
        defaults = dict(tuples_in=1_000_000, bytes_in=16_000_000,
                        bytes_out=0, random_accesses=0, random_bytes=0,
                        cpu_cycles=5_000_000, gpu_ops=2_000_000)
        defaults.update(kw)
        return BlockStats(**defaults)

    def test_cpu_work_memory_bound(self):
        model = CostModel(PAPER_SERVER)
        req = model.cpu_block_work(self._stats())
        assert req.work_bytes == pytest.approx(16_000_000)
        assert req.rate_cap == pytest.approx(PAPER_SERVER.core_stream_bandwidth)

    def test_cpu_work_compute_bound_lowers_rate(self):
        model = CostModel(PAPER_SERVER)
        req = model.cpu_block_work(self._stats(cpu_cycles=2e9))
        compute_seconds = 2e9 / PAPER_SERVER.cpu_frequency_hz
        assert req.min_duration == pytest.approx(compute_seconds)

    def test_random_bytes_amplified_on_cpu(self):
        model = CostModel(PAPER_SERVER)
        base = model.cpu_block_work(self._stats())
        noisy = model.cpu_block_work(self._stats(random_bytes=1_000_000))
        amplification = PROTEUS_TUNING.cpu_random_amplification
        assert noisy.work_bytes - base.work_bytes == pytest.approx(
            1_000_000 * amplification)

    def test_scale_multiplies_everything(self):
        model = CostModel(PAPER_SERVER)
        unit = model.cpu_block_work(self._stats(), scale=1.0)
        scaled = model.cpu_block_work(self._stats(), scale=100.0)
        assert scaled.work_bytes == pytest.approx(unit.work_bytes * 100)

    def test_cores_fed_is_the_socket_dram_over_one_cores_rate(self):
        model = CostModel(PAPER_SERVER)
        dram = PAPER_SERVER.socket_dram_bandwidth
        memory_bound = self._stats()
        price = model.block_price(memory_bound, DeviceType.CPU)
        assert model.cpu_block_work(memory_bound).rate_cap == 5.6e9
        assert price.cores_fed == 8 == math.floor(dram / 5.6e9)
        assert price.seconds == model.cpu_block_work(memory_bound).min_duration
        compute_bound = self._stats(cpu_cycles=2e9)
        rate = model.cpu_block_work(compute_bound).rate_cap
        assert rate < 1e9
        fed = model.block_price(compute_bound, DeviceType.CPU).cores_fed
        assert fed == math.floor(dram / rate) > 8
        starved = CostModel(replace(PAPER_SERVER, socket_dram_bandwidth=1e9))
        assert starved.block_price(memory_bound, DeviceType.CPU).cores_fed == 1

    def test_gpu_price_overlaps_kernel_and_wire(self):
        model = CostModel(PAPER_SERVER)
        stats = self._stats()
        kernel = model.gpu_block_work(stats).min_duration
        assert model.block_price(stats, DeviceType.GPU).seconds == kernel
        plan = model.transfer_plan(16e6)
        wire = plan.setup_seconds + plan.nbytes / plan.link_rate_cap
        assert wire > kernel
        price = model.block_price(stats, DeviceType.GPU, wire_bytes=16e6)
        assert (price.seconds, price.cores_fed) == (wire, 1)

    def test_gpu_work_pays_kernel_launch(self):
        model = CostModel(PAPER_SERVER)
        req = model.gpu_block_work(self._stats())
        assert req.setup_seconds == pytest.approx(
            PAPER_SERVER.kernel_launch_seconds)

    def test_dbms_g_occupancy_halves_bandwidth(self):
        proteus = CostModel(PAPER_SERVER, PROTEUS_TUNING)
        dbms_g = CostModel(PAPER_SERVER, DBMS_G_TUNING)
        fast = proteus.gpu_block_work(self._stats())
        slow = dbms_g.gpu_block_work(self._stats())
        assert slow.min_duration > fast.min_duration * 1.8

    def test_pageable_transfers_capped(self):
        proteus = CostModel(PAPER_SERVER, PROTEUS_TUNING)
        dbms_g = CostModel(PAPER_SERVER, DBMS_G_TUNING)
        assert proteus.transfer_plan(1e9).link_rate_cap == pytest.approx(12e9)
        assert dbms_g.transfer_plan(1e9).link_rate_cap == pytest.approx(5e9)

    def test_dbms_c_dispatch_overhead(self):
        proteus = CostModel(PAPER_SERVER, PROTEUS_TUNING)
        dbms_c = CostModel(PAPER_SERVER, DBMS_C_TUNING)
        stats = self._stats(cpu_cycles=5e9, bytes_in=0)
        assert (dbms_c.cpu_block_work(stats).min_duration
                > proteus.cpu_block_work(stats).min_duration)

    def test_sum_pipeline_reaches_core_stream_rate(self):
        """Figure 7 anchor: a sum pipeline must be memory-bound per core."""
        model = CostModel(PAPER_SERVER)
        tuples = 1 << 20
        stats = BlockStats(
            tuples_in=tuples, bytes_in=tuples * 8,
            cpu_cycles=tuples * (CYCLES.unpack_per_tuple
                                 + CYCLES.aggregate_update),
        )
        req = model.cpu_block_work(stats)
        assert req.rate_cap == pytest.approx(PAPER_SERVER.core_stream_bandwidth)


class TestCompileDemand:
    """Per-device JIT compile pricing (replaces the flat constant)."""

    @staticmethod
    def _stage(device, n_ops):
        from repro.algebra.physical import OpUnpack, Stage
        from repro.hardware.topology import DeviceType

        dtype = DeviceType.GPU if device == "gpu" else DeviceType.CPU
        return Stage(
            stage_id=0, name=f"s-{device}", device=dtype,
            ops=[OpUnpack(columns=["a"]) for _ in range(n_ops)], dop=1,
        )

    def test_gpu_pipelines_cost_5_to_10x_cpu(self):
        model = CostModel(PAPER_SERVER)
        cpu = model.compile_demand(self._stage("cpu", 3))
        gpu = model.compile_demand(self._stage("gpu", 3))
        assert 5.0 <= gpu / cpu <= 10.0

    def test_longer_operator_chains_cost_more(self):
        model = CostModel(PAPER_SERVER)
        short = model.compile_demand(self._stage("cpu", 2))
        long = model.compile_demand(self._stage("cpu", 6))
        assert long > short

    def test_base_seconds_rescales_and_zero_disables(self):
        model = CostModel(PAPER_SERVER)
        stage = self._stage("gpu", 4)
        default = model.compile_demand(stage)
        assert model.compile_demand(stage, base_seconds=DEFAULT_COMPILE_SECONDS) \
            == pytest.approx(default)
        assert model.compile_demand(stage, base_seconds=2 * DEFAULT_COMPILE_SECONDS) \
            == pytest.approx(2 * default)
        assert model.compile_demand(stage, base_seconds=0.0) == 0.0

    def test_minimal_cpu_stage_pays_exactly_the_base(self):
        """The smallest pipeline anchors to the historical flat charge,
        so existing latency lower-bound tests stay valid."""
        model = CostModel(PAPER_SERVER)
        assert model.compile_demand(self._stage("cpu", 2)) \
            == pytest.approx(DEFAULT_COMPILE_SECONDS)
