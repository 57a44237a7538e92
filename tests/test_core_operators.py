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
from repro.hardware.costmodel import BlockPrice, BlockStats, CostModel, WorkRequest
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


def _priced(group, seconds, cores_fed=64):
    """Stub ``group``'s price hook: ``seconds`` a block, ``cores_fed`` the
    most morsels the block's socket feeds (binding nothing by default)."""
    group.block_price = lambda handle, unit_stats: BlockPrice(seconds, cores_fed)


def _producer():
    return Stage("producer", DeviceType.CPU, ops=[OpPackSink(["a"])],
                 source=SegmentSource("t", ["a"]))


def _consume(sim, router, group, seconds=0.0, taken=None, stats=None):
    """Start one consumer on each of ``group``'s queues.  It appends
    ``(group, queue index, handle)`` to ``taken`` for every handle it
    takes, reports ``stats`` at pickup while ``router`` still lacks its
    calibration stats, and finishes the handle after ``seconds`` (never,
    if None), as an engine worker does."""

    def consumer(index, queue):
        while True:
            got = queue.get()
            yield got
            if got.value is Store.END:
                return
            if taken is not None:
                taken.append((group, index, got.value))
            if stats is not None and router.priced and router.unit_stats is None:
                router.calibrate(stats)
            if seconds is None:
                continue
            if seconds:
                yield sim.timeout(seconds)
            router.report_done(group, index, got.value.node_id)

    for index, queue in enumerate(group.queues()):
        sim.process(consumer(index, queue))


def _drain(sim, router, groups, count):
    """Consume everything from all queues; returns items per group."""
    taken = []
    sim.process(router.run())
    for group in groups:
        _consume(sim, router, group, taken=taken)
    for handle in _handles(count):
        router.input.put(handle)
    router.input.close()
    sim.run()
    return {id(g): [h for owner, _, h in taken if owner is g] for g in groups}


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
        taken = []
        hash_values = [i % 6 for i in range(24)]
        for handle in _handles(24, hash_values=hash_values):
            router.input.put(handle)
        router.input.close()
        sim.process(router.run())
        _consume(sim, router, group, taken=taken)
        sim.run()
        per_queue = {i: [h.hash_value for _, j, h in taken if j == i] for i in (0, 1)}
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
        taken = []
        for i in range(10):
            node = f"gpu:{i % 2}"
            block = Block({"a": np.array([i])}, node)
            router.input.put(BlockHandle(block))
        router.input.close()
        _consume(sim, router, gpu, taken=taken)
        sim.process(router.run())
        sim.run()
        landed = {i: [h.node_id for _, j, h in taken if j == i] for i in (0, 1)}
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
    """A load-balance router over several groups prices each block for the
    query's whole life (``core/router.py``'s module docstring)."""

    def _router(self, cpu_seconds, gpu_seconds, count):
        """CPU group (4 workers) and GPU group (1 instance) with stub
        prices; their consumers take blocks and never finish them."""
        sim = Simulator()
        cpu = ConsumerGroup(_cpu_stage(dop=4), ["cpu:0"] * 4)
        gpu = ConsumerGroup(_gpu_stage(dop=1), ["gpu:0"])
        _priced(cpu, cpu_seconds)
        _priced(gpu, gpu_seconds)
        router = Router(sim, _producer(), [cpu, gpu], RouterPolicy.LOAD_BALANCE)
        for group in (cpu, gpu):
            _consume(sim, router, group, seconds=None)
        for handle in _handles(count):
            router.input.put(handle)
        router.input.close()
        sim.process(router.run())
        return sim, router, cpu, gpu

    def test_calibration_block_goes_to_fewest_instances_and_holds_the_rest(self):
        sim, router, cpu, gpu = self._router(1.0, 0.25, 5)
        sim.run()
        assert (cpu.assigned, gpu.assigned, router.routed_blocks) == (0, 1, 1)
        assert router.unit_stats is None and router.priced
        router.calibrate(BlockStats(tuples_in=4, bytes_in=32, cpu_cycles=8.0))
        assert router.unit_stats.cpu_cycles == 2.0
        assert router.unit_stats.bytes_in == 8.0
        # a worker reports stats only while a priced router lacks them
        assert not (router.priced and router.unit_stats is None)
        sim.run()
        assert router.routed_blocks == 5

    def test_a_group_is_refused_a_block_it_would_finish_last(self):
        # The GPU takes blocks up to its credit limit (6).  It would drain
        # those, block 7 and the one still waiting by 2.0 s; an idle CPU
        # worker needs 2.1 s, so the router waits instead.
        sim, router, cpu, gpu = self._router(2.1, 0.25, 8)
        sim.run()
        router.calibrate(BlockStats(tuples_in=1))
        sim.run()
        assert (cpu.assigned, gpu.assigned) == (0, 6)

    def test_a_deep_backlog_is_shared(self):
        # With ~35 blocks waiting, a CPU worker finishes one (1.0 s) long
        # before the GPU would drain them all (~9 s): both groups take
        # blocks until their credit runs out (no consumer finishes one).
        sim, router, cpu, gpu = self._router(1.0, 0.25, 40)
        sim.run()
        router.calibrate(BlockStats(tuples_in=1))
        sim.run()
        assert (cpu.assigned, gpu.assigned) == (6, 6)

    def test_single_group_routers_never_price(self):
        def never(handle, unit_stats):
            raise AssertionError("priced a block")

        sim = Simulator()
        alone = ConsumerGroup(_cpu_stage(dop=2), ["cpu:0"] * 2)
        alone.block_price = never
        router = Router(sim, _producer(), [alone], RouterPolicy.LOAD_BALANCE)
        assert not router.priced
        assert len(_drain(sim, router, [alone], 6)[id(alone)]) == 6

    def test_every_block_after_calibration_is_priced(self):
        # Both groups complete far more than 2 x dop blocks; every block
        # but the calibration one is still priced before it is committed.
        sim = Simulator()
        cpu = ConsumerGroup(_cpu_stage(dop=2), ["cpu:0"] * 2)
        gpu = ConsumerGroup(_gpu_stage(dop=1), ["gpu:0"])
        priced = set()

        def price(seconds):
            def hook(handle, unit_stats):
                priced.add(id(handle.block))
                return BlockPrice(seconds, 64)
            return hook

        cpu.block_price, gpu.block_price = price(1.0), price(0.5)
        router = Router(sim, _producer(), [cpu, gpu], RouterPolicy.LOAD_BALANCE)
        for group, seconds in ((cpu, 1.0), (gpu, 0.5)):
            _consume(sim, router, group, seconds, stats=BlockStats(tuples_in=1))
        handles = _handles(40)
        for handle in handles:
            router.input.put(handle)
        router.input.close()
        sim.process(router.run())
        sim.run()
        assert cpu.completed >= 4 * cpu.dop and gpu.completed >= 4 * gpu.dop
        assert cpu.completed + gpu.completed == 40
        assert len(priced) == 39


class TestMorselSplitting:
    """A priced router cuts a coarse block for a shared-queue group into
    morsels (``core/router.py``'s module docstring)."""

    def _route(self, cpu_seconds, gpu_seconds, count, cpu_dop=4,
               in_place=True, service=None, gpu_dop=1, cores_fed=64):
        """Route ``count`` 100-row blocks to a CPU group (shared queue)
        and a GPU group (one queue per GPU) with stub prices, the CPU's
        fed by ``cores_fed`` cores.  Every
        consumer reports the calibration stats at pickup; it keeps what
        it takes, or finishes each item after ``service[device]`` seconds.
        Returns the router, both groups and the log of ``(device, block
        index, morsels)``."""
        sim = Simulator()
        cpu = ConsumerGroup(_cpu_stage(dop=cpu_dop), ["cpu:0"] * cpu_dop)
        gpu = ConsumerGroup(_gpu_stage(dop=gpu_dop), ["gpu:0", "gpu:1"][:gpu_dop])
        _priced(cpu, cpu_seconds, cores_fed)
        _priced(gpu, gpu_seconds)
        for group in (cpu, gpu):
            group.reads_in_place = None if in_place is None else (
                lambda handle: in_place
            )
        router = Router(sim, _producer(), [cpu, gpu], RouterPolicy.LOAD_BALANCE)
        handles = [
            BlockHandle(Block({"a": np.arange(100, dtype=np.int64)}, "cpu:0"))
            for _ in range(count)
        ]
        index_of = {id(handle.block): i for i, handle in enumerate(handles)}
        taken = []
        for group in (cpu, gpu):
            seconds = None if service is None else service[group.stage.device.value]
            _consume(sim, router, group, seconds, taken, BlockStats(tuples_in=1))
        for handle in handles:
            router.input.put(handle)
        router.input.close()
        sim.process(router.run())
        sim.run()
        log = [
            (group.stage.device.value, index_of[id(handle.block)], handle.morsels)
            for group, _, handle in taken
        ]
        return router, cpu, gpu, log

    @pytest.mark.parametrize("dop", [4, 12])
    def test_a_block_priced_nine_times_the_fastest_is_cut_in_dop_or_nine(self, dop):
        service = {"cpu": 1.0, "gpu": 1.0}
        router, cpu, gpu, log = self._route(9.0, 1.0, 6, cpu_dop=dop, service=service)
        on_cpu = [(block, morsels) for device, block, morsels in log
                  if device == "cpu"]
        assert on_cpu and cpu.assigned == len(on_cpu)
        cuts = {id(morsels): morsels for _, morsels in on_cpu}
        assert {morsels.k for morsels in cuts.values()} == {min(dop, 9)}
        for morsels in cuts.values():
            # every morsel of one cut is the same block, enqueued together
            blocks = [block for block, m in on_cpu if m is morsels]
            assert len(blocks) == morsels.k and len(set(blocks)) == 1
        # a block is routed once, whole or cut
        routed = [block for _, block, _ in log]
        assert sorted(set(routed)) == list(range(6))
        assert router.routed_blocks == 6

    @pytest.mark.parametrize("dop, cores_fed, k", [
        (24, 8, 8),    # a join block: 45.3 / 5.6 GB/s feeds 8 cores
        (24, 28, 15),  # Q1.x: 28 cores fed, own / fastest = 15 binds
        (4, 8, 4),     # dop <= 8 never reaches the cap
    ])
    def test_a_cut_never_exceeds_the_cores_the_socket_feeds(self, dop, cores_fed, k):
        service = {"cpu": 1.0, "gpu": 1.0}
        router, cpu, gpu, log = self._route(15.0, 1.0, 6, cpu_dop=dop,
                                            service=service, cores_fed=cores_fed)
        assert {m.k for device, _, m in log if device == "cpu"} == {k}

    def test_per_instance_groups_and_transfers_are_never_cut(self):
        # Two GPUs priced 6x the CPU still take one item per block: with
        # the CPU out of credit and a deep backlog, they take several.
        router, cpu, gpu, log = self._route(1.0, 6.0, 40, gpu_dop=2)
        assert gpu.assigned > 1
        assert all(morsels is None for _, _, morsels in log)
        # A CPU group that would need a mem-move takes whole blocks; read
        # in place, the same blocks are cut in two.
        router, cpu, gpu, log = self._route(2.0, 1.0, 12, in_place=False)
        assert cpu.assigned > 0
        assert all(morsels is None for _, _, morsels in log)
        router, cpu, gpu, log = self._route(2.0, 1.0, 12)
        assert {m.k for device, _, m in log if device == "cpu"} == {2}

    def test_single_group_routers_never_cut(self):
        sim = Simulator()
        alone = ConsumerGroup(_cpu_stage(dop=4), ["cpu:0"] * 4)
        _priced(alone, 9.0)
        alone.reads_in_place = lambda handle: True
        router = Router(sim, _producer(), [alone], RouterPolicy.LOAD_BALANCE)
        received = _drain(sim, router, [alone], 6)[id(alone)]
        assert len(received) == 6
        assert all(handle.morsels is None for handle in received)

    def _broadcast(self, cpu_dop, cores_fed=64, priced=True):
        """A broadcast router over a CPU group (shared queue) and one GPU,
        both reading in place, priced 9 s and 1 s a block if ``priced``."""
        sim = Simulator()
        cpu = ConsumerGroup(_cpu_stage(dop=cpu_dop), ["cpu:0"] * cpu_dop)
        gpu = ConsumerGroup(_gpu_stage(dop=1), ["gpu:0"])
        for group, seconds in ((cpu, 9.0), (gpu, 1.0)):
            if priced:
                _priced(group, seconds, cores_fed)
            group.reads_in_place = lambda handle: True
        router = Router(sim, _producer(), [cpu, gpu], RouterPolicy.TARGET,
                        broadcast=True)
        return sim, router, cpu, gpu

    @pytest.mark.parametrize("dop, cores_fed, k", [
        (4, 64, 4),    # dop binds
        (12, 64, 9),   # own / fastest = 9 binds
        (24, 8, 8),    # the socket feeds 8 cores
    ])
    def test_a_priced_broadcast_cuts_its_cpu_copy_after_calibration(
            self, dop, cores_fed, k):
        sim, router, cpu, gpu = self._broadcast(dop, cores_fed)
        assert router.priced
        handles = [
            BlockHandle(Block({"a": np.arange(100, dtype=np.int64)}, "cpu:0"))
            for _ in range(2)
        ]
        taken = []
        for group in (gpu, cpu):
            _consume(sim, router, group, seconds=None, taken=taken)
        for handle in handles:
            router.input.put(handle)
        router.input.close()
        sim.process(router.run())
        sim.run()
        # The GPU copy goes first; the CPU copy waits for calibration.
        assert [(g, h.block) for g, _, h in taken] == [(gpu, handles[0].block)]
        assert cpu.assigned == 0 and router.unit_stats is None
        router.calibrate(BlockStats(tuples_in=1))
        sim.run()
        for block in (h.block for h in handles):
            copies = [(g, h) for g, _, h in taken if h.block is block]
            assert copies[0][0] is gpu and copies[0][1].morsels is None
            cut = [h.morsels for g, h in copies[1:]]
            assert len(cut) == k and all(g is cpu for g, _ in copies[1:])
            assert cut[0].k == k and all(m is cut[0] for m in cut)
        assert cpu.assigned == 2 * k and gpu.assigned == 2

    def test_a_broadcast_without_price_hooks_is_never_cut(self):
        sim, router, cpu, gpu = self._broadcast(4, priced=False)
        assert not router.priced
        received = _drain(sim, router, [cpu, gpu], 3)
        assert [len(received[id(g)]) for g in (cpu, gpu)] == [3, 3]
        assert all(h.morsels is None for g in (cpu, gpu) for h in received[id(g)])

    def test_a_cut_is_committed_only_when_credit_and_room_fit_every_morsel(self):
        # 4 workers: credit 6 items.  One cut of 4 fits; a second would
        # take the group to 8, so the CPU takes nothing more.  The GPU
        # takes its credit (6 blocks, the calibration block included).
        router, cpu, gpu, log = self._route(9.0, 1.0, 12, cpu_dop=4)
        assert (cpu.assigned, gpu.assigned, router.routed_blocks) == (4, 6, 7)

        sim = Simulator()
        group = ConsumerGroup(_cpu_stage(dop=4), ["cpu:0"] * 4)
        other = ConsumerGroup(_gpu_stage(dop=1), ["gpu:0"])
        router = Router(sim, _producer(), [group, other], RouterPolicy.LOAD_BALANCE)
        for handle in _handles(5):
            group.shared_queue.put(handle)  # 5 of 8 slots taken
        assert group.has_space(3) and not group.has_space(4)
        group.shared_queue.items.clear()
        group.assigned = 2  # credit: 2 + k <= 6
        assert router._has_credit(group, 4) and not router._has_credit(group, 5)

    def test_a_block_on_a_busy_socket_is_priced_one_round_later(self):
        # 24 workers on two sockets, each socket's DRAM feeding 8 of them:
        # a block priced 8 s is cut into 6 morsels of 1.33 s against a
        # 1.5 s GPU.  With 8 morsels out on the other socket, the CPU
        # finishes the block in one round, before the GPU.  With them on
        # the block's own socket, it needs two (2.67 s): the GPU takes
        # it, since no group drains its blocks before it finishes this one.
        def handle(node):
            return BlockHandle(Block({"a": np.arange(100, dtype=np.int64)}, node))

        sim = Simulator()
        cpu = ConsumerGroup(_cpu_stage(dop=24), ["cpu:0", "cpu:1"] * 12)
        gpu = ConsumerGroup(_gpu_stage(dop=1), ["gpu:0"])
        _priced(cpu, 8.0, cores_fed=8)
        _priced(gpu, 1.5)
        cpu.reads_in_place = lambda handle: True
        router = Router(sim, _producer(), [cpu, gpu], RouterPolicy.LOAD_BALANCE)
        router.unit_stats = BlockStats(tuples_in=1)
        block = handle("cpu:0")
        assert router._morsels(cpu, block) == 6
        for busy, taker in (("cpu:1", cpu), ("cpu:0", gpu)):
            for _ in range(8):
                router._enqueue(handle(busy), cpu, None)
            assert cpu.on_node[busy] == cpu.outstanding == 8
            assert router._price(block) == (taker, None)
            for index in range(8):
                router.report_done(cpu, index, busy)
            assert cpu.on_node[busy] == cpu.outstanding == 0
            assert router._price(block) == (cpu, None)

    def test_equal_prices_route_as_an_uncut_router(self):
        service = {"cpu": 1.0, "gpu": 0.25}
        cut = self._route(1.0, 1.0, 40, service=service)
        uncut = self._route(1.0, 1.0, 40, in_place=None, service=service)
        assert all(morsels is None for _, _, morsels in cut[3])
        assert cut[3] == uncut[3]
        assert cut[1].completed == 40 - cut[2].completed > 0


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
