"""Unit tests for the HetExchange runtime operators (core package)."""

import numpy as np
import pytest

from repro.algebra.physical import (
    OpPackSink,
    OpReduceSink,
    OpUnpack,
    RouterPolicy,
    SegmentSource,
    Stage,
)
from repro.core.device_crossing import Gpu2Cpu, cpu2gpu
from repro.core.mem_move import MemMove
from repro.core.router import ConsumerGroup, Router, RoutingError
from repro.core.segmenter import Segmenter
from repro.hardware.costmodel import BlockStats, CostModel, WorkRequest
from repro.hardware.sim import Interrupt, Simulator, Store
from repro.hardware.specs import PAPER_SERVER
from repro.hardware.topology import DeviceType, Server
from repro.memory.block import Block, BlockHandle
from repro.memory.managers import BlockManagerSet
from repro.storage import Catalog, Column, DataType, Table


def _handles(n, node="cpu:0", scale=1.0, hash_values=None):
    out = []
    for i in range(n):
        block = Block({"a": np.array([i], dtype=np.int64)}, node, scale)
        handle = BlockHandle(block)
        if hash_values is not None:
            handle.hash_value = hash_values[i]
        out.append(handle)
    return out


def _cpu_stage(name="consumer", dop=2):
    return Stage(name, DeviceType.CPU,
                 ops=[OpUnpack(["a"]), OpReduceSink([])], dop=dop)


def _gpu_stage(name="gpu-consumer", dop=2):
    return Stage(name, DeviceType.GPU,
                 ops=[OpUnpack(["a"]), OpReduceSink([])], dop=dop,
                 affinity=[0, 1][:dop])


def _producer():
    return Stage("producer", DeviceType.CPU, ops=[OpPackSink(["a"])],
                 source=SegmentSource("t", ["a"]))


def _drain(sim, router, groups, count):
    """Consume everything from all queues; returns items per group."""
    received = {id(g): [] for g in groups}

    def consumer(group, queue):
        while True:
            got = queue.get()
            yield got
            item = got.value
            if item is Store.END:
                return
            received[id(group)].append(item)
            group.report_done()

    sim.process(router.run())
    for group in groups:
        for queue in group.queues():
            sim.process(consumer(group, queue))
    for handle in _handles(count):
        router.input.put(handle)
    router.input.close()
    sim.run()
    return received


class TestRouterPolicies:
    def test_load_balance_delivers_exactly_once(self):
        sim = Simulator()
        group = ConsumerGroup(_cpu_stage(dop=3), ["cpu:0"] * 3)
        router = Router(sim, _producer(), [group], RouterPolicy.LOAD_BALANCE)
        received = _drain(sim, router, [group], 20)
        assert len(received[id(group)]) == 20
        assert router.routed_blocks == 20

    def test_union_single_consumer(self):
        sim = Simulator()
        group = ConsumerGroup(_cpu_stage(dop=1), ["cpu:0"])
        router = Router(sim, _producer(), [group], RouterPolicy.UNION)
        received = _drain(sim, router, [group], 7)
        assert len(received[id(group)]) == 7

    def test_hash_routing_consistency(self):
        sim = Simulator()
        group = ConsumerGroup(_cpu_stage(dop=2), ["cpu:0", "cpu:1"])
        router = Router(sim, _producer(), [group], RouterPolicy.HASH)
        per_queue = {0: [], 1: []}

        def consumer(index):
            queue = group.instance_queues[index]
            while True:
                got = queue.get()
                yield got
                if got.value is Store.END:
                    return
                per_queue[index].append(got.value.hash_value)
                group.report_done(index)

        hash_values = [i % 6 for i in range(24)]
        for handle in _handles(24, hash_values=hash_values):
            router.input.put(handle)
        router.input.close()
        sim.process(router.run())
        sim.process(consumer(0))
        sim.process(consumer(1))
        sim.run()
        # same hash value always lands on the same instance
        assert set(per_queue[0]) & set(per_queue[1]) == set()
        assert sorted(per_queue[0] + per_queue[1]) == sorted(hash_values)

    def test_hash_routing_requires_hash_value(self):
        sim = Simulator()
        group = ConsumerGroup(_cpu_stage(dop=2), ["cpu:0", "cpu:1"])
        router = Router(sim, _producer(), [group], RouterPolicy.HASH)
        router.input.put(_handles(1)[0])  # no hash value
        router.input.close()
        proc = sim.process(router.run())
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, RoutingError)

    def test_round_robin_cycles_instances(self):
        sim = Simulator()
        group = ConsumerGroup(_cpu_stage(dop=2), ["cpu:0", "cpu:1"])
        router = Router(sim, _producer(), [group], RouterPolicy.ROUND_ROBIN)
        counts = {0: 0, 1: 0}

        def consumer(index):
            queue = group.instance_queues[index]
            while True:
                got = queue.get()
                yield got
                if got.value is Store.END:
                    return
                counts[index] += 1
                group.report_done(index)

        for handle in _handles(10):
            router.input.put(handle)
        router.input.close()
        sim.process(consumer(0))
        sim.process(consumer(1))
        sim.process(router.run())
        sim.run()
        assert counts == {0: 5, 1: 5}

    def test_broadcast_duplicates_per_target(self):
        sim = Simulator()
        cpu = ConsumerGroup(_cpu_stage(dop=3), ["cpu:0"] * 3)
        gpu = ConsumerGroup(_gpu_stage(dop=2), ["gpu:0", "gpu:1"])
        router = Router(sim, _producer(), [cpu, gpu], RouterPolicy.TARGET,
                        broadcast=True)
        received = _drain(sim, router, [cpu, gpu], 4)
        # CPU domain = ONE broadcast target; each GPU = its own target
        assert len(received[id(cpu)]) == 4
        assert len(received[id(gpu)]) == 8

    def test_gpu_resident_blocks_pinned_to_their_gpu(self):
        sim = Simulator()
        gpu = ConsumerGroup(_gpu_stage(dop=2), ["gpu:0", "gpu:1"])
        router = Router(sim, _producer(), [gpu], RouterPolicy.LOAD_BALANCE)
        landed = {0: [], 1: []}

        def consumer(index):
            queue = gpu.instance_queues[index]
            while True:
                got = queue.get()
                yield got
                if got.value is Store.END:
                    return
                landed[index].append(got.value.node_id)
                gpu.report_done(index)

        for i in range(10):
            node = f"gpu:{i % 2}"
            block = Block({"a": np.array([i])}, node)
            router.input.put(BlockHandle(block))
        router.input.close()
        sim.process(consumer(0))
        sim.process(consumer(1))
        sim.process(router.run())
        sim.run()
        assert all(node == "gpu:0" for node in landed[0])
        assert all(node == "gpu:1" for node in landed[1])

    def test_policy_validation(self):
        sim = Simulator()
        group = ConsumerGroup(_cpu_stage(), ["cpu:0"] * 2)
        with pytest.raises(RoutingError):
            Router(sim, _producer(), [group], "teleport")
        with pytest.raises(RoutingError):
            Router(sim, _producer(), [], RouterPolicy.UNION)


class TestColdLoadBalancePricing:
    """A load-balance router over several groups prices each block until
    every group is warm (``core/router.py``'s module docstring)."""

    def _router(self, cpu_seconds, gpu_seconds, count):
        """CPU group (4 workers) and GPU group (1 instance) with stub
        prices; their consumers take blocks and never finish them."""
        sim = Simulator()
        cpu = ConsumerGroup(_cpu_stage(dop=4), ["cpu:0"] * 4)
        gpu = ConsumerGroup(_gpu_stage(dop=1), ["gpu:0"])
        cpu.block_seconds = lambda handle: cpu_seconds
        gpu.block_seconds = lambda handle: gpu_seconds
        router = Router(sim, _producer(), [cpu, gpu], RouterPolicy.LOAD_BALANCE)

        def holder(queue):
            while True:
                got = queue.get()
                yield got
                if got.value is Store.END:
                    return

        for group in (cpu, gpu):
            for queue in group.queues():
                sim.process(holder(queue))
        for handle in _handles(count):
            router.input.put(handle)
        router.input.close()
        sim.process(router.run())
        return sim, router, cpu, gpu

    def test_calibration_block_goes_to_fewest_instances_and_holds_the_rest(self):
        sim, router, cpu, gpu = self._router(1.0, 0.25, 5)
        sim.run()
        assert (cpu.assigned, gpu.assigned, router.routed_blocks) == (0, 1, 1)
        assert router.unit_stats is None and gpu.on_stats is not None
        gpu.on_stats(BlockStats(tuples_in=4, bytes_in=32, cpu_cycles=8.0))
        assert router.unit_stats.cpu_cycles == 2.0
        assert router.unit_stats.bytes_in == 8.0
        assert cpu.on_stats is None and gpu.on_stats is None
        sim.run()
        assert router.routed_blocks == 5

    def test_a_group_is_refused_a_block_it_would_finish_last(self):
        # The GPU takes blocks up to its credit limit (6).  It would drain
        # those, block 7 and the one still waiting by 2.0 s; an idle CPU
        # worker needs 2.1 s, so the router waits instead.
        sim, router, cpu, gpu = self._router(2.1, 0.25, 8)
        sim.run()
        gpu.on_stats(BlockStats(tuples_in=1))
        sim.run()
        assert (cpu.assigned, gpu.assigned) == (0, 6)

    def test_a_deep_backlog_is_shared(self):
        # With ~35 blocks waiting, a CPU worker finishes one (1.0 s) long
        # before the GPU would drain them all (~9 s): both groups take
        # blocks until their credit runs out (no consumer finishes one).
        sim, router, cpu, gpu = self._router(1.0, 0.25, 40)
        sim.run()
        gpu.on_stats(BlockStats(tuples_in=1))
        sim.run()
        assert (cpu.assigned, gpu.assigned) == (6, 6)

    def test_single_group_and_warm_routers_never_price(self):
        def never(handle):
            raise AssertionError("priced a block")

        sim = Simulator()
        alone = ConsumerGroup(_cpu_stage(dop=2), ["cpu:0"] * 2)
        alone.block_seconds = never
        router = Router(sim, _producer(), [alone], RouterPolicy.LOAD_BALANCE)
        assert alone.on_stats is None
        assert len(_drain(sim, router, [alone], 6)[id(alone)]) == 6

        sim = Simulator()
        cpu = ConsumerGroup(_cpu_stage(dop=2), ["cpu:0"] * 2)
        gpu = ConsumerGroup(_gpu_stage(dop=2), ["gpu:0", "gpu:1"])
        for group in (cpu, gpu):
            group.block_seconds = never
            group.assigned = group.completed = 2 * group.dop
            group.first_assign_at = 0.0
        router = Router(sim, _producer(), [cpu, gpu], RouterPolicy.LOAD_BALANCE)
        received = _drain(sim, router, [cpu, gpu], 6)
        assert len(received[id(cpu)]) + len(received[id(gpu)]) == 6
        assert router.unit_stats is None
        assert cpu.on_stats is None and gpu.on_stats is None


class TestMemMove:
    def _env(self):
        sim = Simulator()
        server = Server.paper_machine(sim)
        blocks = BlockManagerSet(server)
        cost = CostModel(PAPER_SERVER)
        return sim, server, MemMove(sim, server, blocks, cost)

    def test_local_block_forwarded_without_transfer(self):
        sim, _, mem_move = self._env()
        handle = _handles(1, node="gpu:0")[0]
        out = mem_move.schedule(handle, "gpu:0")
        assert out is handle
        assert out.transfer_done is None
        assert mem_move.forwards == 1 and mem_move.transfers == 0

    def test_remote_block_gets_async_dma(self):
        sim, server, mem_move = self._env()
        nbytes = 12_000_000
        block = Block({"a": np.zeros(nbytes // 8, dtype=np.int64)}, "cpu:0")
        handle = BlockHandle(block)
        out = mem_move.schedule(handle, "gpu:0")
        assert out.node_id == "gpu:0"
        assert out.transfer_done is not None

        def waiter():
            yield out.transfer_done
            return sim.now

        finish = sim.run_process(waiter())
        # 12 MB over a 12 GB/s link ~ 1 ms (plus setup latencies)
        assert finish == pytest.approx(0.001, rel=0.2)
        assert mem_move.transfers == 1
        assert server.gpus[0].link.bandwidth.total_work_served == pytest.approx(
            nbytes)

    def test_logical_scale_inflates_transfer(self):
        sim, _, mem_move = self._env()
        block = Block({"a": np.zeros(1000, dtype=np.int64)}, "cpu:0",
                      logical_scale=1000.0)
        out = mem_move.schedule(BlockHandle(block), "gpu:1")

        def waiter():
            yield out.transfer_done
            return sim.now

        finish = sim.run_process(waiter())
        assert finish == pytest.approx(8e6 / 12e9, rel=0.2)
        assert mem_move.bytes_moved == pytest.approx(8e6)


class TestDeviceCrossing:
    def test_cpu2gpu_serialises_kernels(self):
        sim = Simulator()
        server = Server.paper_machine(sim)
        finishes = []

        def launch():
            yield from cpu2gpu(sim, server.gpus[0], WorkRequest(
                work_bytes=320e6, rate_cap=320e9, setup_seconds=10e-6))
            finishes.append(sim.now)

        sim.process(launch())
        sim.process(launch())
        sim.run()
        # each kernel: 10 us launch + 1 ms stream; serialised on the engine
        assert finishes[0] == pytest.approx(1.01e-3, rel=0.05)
        assert finishes[1] == pytest.approx(2.02e-3, rel=0.05)

    def test_cpu2gpu_aborted_worker_never_keeps_the_engine(self):
        """A worker interrupted inside its kernel, or while queued for
        the engine, leaves it free for the next launch."""
        sim = Simulator()
        gpu = Server.paper_machine(sim).gpus[0]
        work = WorkRequest(work_bytes=320e6, rate_cap=320e9, setup_seconds=10e-6)

        def worker():
            try:
                yield from cpu2gpu(sim, gpu, work)
            except Interrupt:
                pass

        running, queued = sim.process(worker()), sim.process(worker())
        sim.run(until=1e-6)
        running.interrupt()
        queued.interrupt()
        sim.run()
        assert gpu.compute.in_use == 0
        sim.run_process(cpu2gpu(sim, gpu, work))
        assert gpu.compute.in_use == 0

    def test_gpu2cpu_queue_and_task_spawn(self):
        sim = Simulator()
        crossing = Gpu2Cpu(sim, CostModel(PAPER_SERVER), capacity=4)

        def gpu_side():
            yield crossing.send("task-1")
            yield crossing.send(Store.END)

        def cpu_side():
            items = []
            while True:
                item = yield from crossing.receive()
                if item is Store.END:
                    return items
                items.append(item)

        sim.process(gpu_side())
        proc = sim.process(cpu_side())
        sim.run()
        assert proc.value == ["task-1"]
        assert sim.now == pytest.approx(PAPER_SERVER.task_spawn_seconds)


class TestSegmenter:
    def _catalog(self):
        sim = Simulator()
        catalog = Catalog(Server.paper_machine(sim), segment_rows=100)
        catalog.register(Table("t", [
            Column.from_values("a", DataType.INT64, np.arange(250)),
            Column.from_values("b", DataType.INT32, np.arange(250) % 7),
        ]))
        return catalog

    def test_blocks_cover_table_in_order(self):
        segmenter = Segmenter(self._catalog(), "t", ["a"], block_tuples=40)
        handles = list(segmenter)
        assert segmenter.num_blocks() == len(handles)
        values = np.concatenate([h.block.column("a") for h in handles])
        assert np.array_equal(values, np.arange(250))

    def test_blocks_carry_segment_node(self):
        segmenter = Segmenter(self._catalog(), "t", ["a"], block_tuples=40)
        nodes = {h.node_id for h in segmenter}
        assert nodes == {"cpu:0", "cpu:1"}

    def test_block_size_respected(self):
        segmenter = Segmenter(self._catalog(), "t", ["a", "b"], block_tuples=64)
        for handle in segmenter:
            assert handle.block.num_tuples <= 64
            assert set(handle.block.columns) == {"a", "b"}

    def test_logical_scale_propagates(self):
        catalog = self._catalog()
        catalog.set_logical_scale("t", 500.0)
        handle = next(iter(Segmenter(catalog, "t", ["a"], 64)))
        assert handle.block.logical_scale == 500.0
        other = next(iter(Segmenter(self._catalog(), "t", ["a"], 64)))
        assert other.block.logical_scale == 1.0

    def test_unknown_column_raises_early(self):
        with pytest.raises(KeyError):
            Segmenter(self._catalog(), "t", ["ghost"], 64)
