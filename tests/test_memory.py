"""Unit tests for blocks, block managers and memory managers."""

import numpy as np
import pytest

from repro.core.mem_move import MemMove
from repro.hardware.costmodel import CostModel
from repro.hardware.sim import Simulator
from repro.hardware.specs import PAPER_SERVER
from repro.hardware.topology import Server
from repro.memory import (
    Block,
    BlockHandle,
    BlockManagerSet,
    MemoryManager,
    OutOfDeviceMemory,
    REMOTE_ACQUIRE_LATENCY,
    REMOTE_BATCH_SIZE,
)
from repro.memory.managers import BlockManager


def _server():
    return Server.paper_machine(Simulator())


class TestBlock:
    def test_shape_and_bytes(self):
        block = Block({"a": np.arange(10, dtype=np.int64),
                       "b": np.arange(10, dtype=np.int32)}, "cpu:0")
        assert block.num_tuples == 10
        assert block.nbytes == 10 * 8 + 10 * 4
        assert block.logical_bytes == block.nbytes

    def test_logical_scale(self):
        block = Block({"a": np.arange(4, dtype=np.int32)}, "cpu:0",
                      logical_scale=1000.0)
        assert block.logical_bytes == pytest.approx(16 * 1000)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            Block({"a": np.arange(2), "b": np.arange(3)}, "cpu:0")

    def test_with_node_relocates(self):
        block = Block({"a": np.arange(4)}, "cpu:0")
        moved = block.with_node("gpu:1")
        assert moved.node_id == "gpu:1"
        assert block.node_id == "cpu:0"
        assert moved.column("a") is block.column("a")  # zero-copy

    def test_missing_column_raises_helpfully(self):
        block = Block({"a": np.arange(4)}, "cpu:0")
        with pytest.raises(KeyError, match="no column"):
            block.column("z")


class TestBlockHandle:
    def test_routed_copy_preserves_metadata(self):
        block = Block({"a": np.arange(4)}, "gpu:0")
        handle = BlockHandle(block, hash_value=3, target_id=1)
        copy = handle.routed_copy()
        assert copy.hash_value == 3 and copy.target_id == 1
        assert copy.node_id == "gpu:0"


class TestMemoryManager:
    def test_allocate_and_free(self):
        server = _server()
        manager = MemoryManager(server.memory_nodes["gpu:0"])
        handle = manager.allocate(4e9, label="ht")
        assert server.memory_nodes["gpu:0"].used_bytes == pytest.approx(4e9)
        manager.free(handle)
        assert server.memory_nodes["gpu:0"].used_bytes == 0

    def test_oom_raises_with_label(self):
        server = _server()
        manager = MemoryManager(server.memory_nodes["gpu:0"])
        with pytest.raises(OutOfDeviceMemory, match="big-table"):
            manager.allocate(9e9, label="big-table")

    def test_free_all(self):
        server = _server()
        manager = MemoryManager(server.memory_nodes["cpu:0"])
        for _ in range(3):
            manager.allocate(1e9)
        manager.free_all()
        assert server.memory_nodes["cpu:0"].used_bytes == 0


class TestBlockManager:
    def test_arena_preallocated(self):
        server = _server()
        node = server.memory_nodes["cpu:0"]
        BlockManager(node, block_bytes=1 << 20, arena_blocks=100)
        assert node.used_bytes == pytest.approx(100 * (1 << 20))

    def test_acquire_release_cycle(self):
        server = _server()
        manager = BlockManager(server.memory_nodes["cpu:0"], 1 << 20, 4)
        manager.acquire(3)
        assert manager.free_blocks == 1
        manager.release(3)
        assert manager.free_blocks == 4

    def test_exhaustion_raises(self):
        server = _server()
        manager = BlockManager(server.memory_nodes["cpu:0"], 1 << 20, 2)
        manager.acquire(2)
        with pytest.raises(OutOfDeviceMemory, match="exhausted"):
            manager.acquire(1)

    def test_over_release_rejected(self):
        server = _server()
        manager = BlockManager(server.memory_nodes["cpu:0"], 1 << 20, 2)
        with pytest.raises(ValueError):
            manager.release(1)


class TestBlockManagerSet:
    def test_every_node_has_a_manager(self):
        blocks = BlockManagerSet(_server())
        assert set(blocks.managers) == {"cpu:0", "cpu:1", "gpu:0", "gpu:1"}

    def test_remote_acquire_batches_and_caches(self):
        """Within one phase, acquires 1 and REMOTE_BATCH_SIZE + 1 of a
        (block node, target node) pair pay the remote round trip; the
        acquires between them ride the batch and pay nothing."""
        phases = _Phases()
        phase = phases.mem_move()
        seconds = [phases.dma_seconds(phase)
                   for _ in range(REMOTE_BATCH_SIZE + 1)]
        cold, warm = seconds[0], seconds[1]
        assert cold - warm == pytest.approx(2 * REMOTE_ACQUIRE_LATENCY, rel=1e-6)
        for batched in seconds[1:REMOTE_BATCH_SIZE]:
            assert batched == pytest.approx(warm, rel=1e-9)
        assert seconds[REMOTE_BATCH_SIZE] == pytest.approx(cold, rel=1e-9)

    def test_caches_are_per_local_node(self):
        """Each (block node, target node) pair counts its own acquires,
        and a second mem-move starts cold: no count outlives its phase."""
        phases = _Phases()
        phase = phases.mem_move()
        cold = phases.dma_seconds(phase)
        assert cold - phases.dma_seconds(phase) == pytest.approx(
            2 * REMOTE_ACQUIRE_LATENCY, rel=1e-6)
        other = [phases.dma_seconds(phase, node="cpu:1") for _ in range(2)]
        assert other[0] - other[1] == pytest.approx(
            2 * REMOTE_ACQUIRE_LATENCY, rel=1e-6)
        assert phases.dma_seconds(phases.mem_move()) == (
            pytest.approx(cold, rel=1e-9))

    def test_release_all_caches_restores_arenas(self):
        """No slot is parked between phases: each schedule takes exactly
        one arena slot, release_staged returns it, and the arena is whole
        once the phase's blocks are released."""
        phases = _Phases()
        manager = phases.manager
        phase = phases.mem_move()
        free = manager.free_blocks
        for taken in range(1, REMOTE_BATCH_SIZE + 2):
            phase.schedule(phases.handle("cpu:0"), "gpu:0")
            assert manager.free_blocks == free - taken
        phases.sim.run()
        for _ in range(REMOTE_BATCH_SIZE + 1):
            phase.release_staged("gpu:0")
        assert manager.free_blocks == free == manager.arena_blocks


class _Phases:
    """One engine's block managers and clock, for timing the DMA of the
    mem-moves of successive phases into gpu:0."""

    def __init__(self):
        self.sim = Simulator()
        self.server = Server.paper_machine(self.sim)
        self.blocks = BlockManagerSet(self.server)
        self.manager = self.blocks.manager("gpu:0")
        self.cost = CostModel(PAPER_SERVER)

    def mem_move(self):
        return MemMove(self.sim, self.server, self.blocks, self.cost)

    @staticmethod
    def handle(node):
        return BlockHandle(Block({"a": np.zeros(1000, np.int64)}, node))

    def dma_seconds(self, mem_move, node="cpu:0"):
        """Seconds from scheduling one block from ``node`` until it is
        staged on gpu:0; the block holds one slot until it is released."""
        free = self.manager.free_blocks
        start = self.sim.now
        staged = mem_move.schedule(self.handle(node), "gpu:0")
        assert self.manager.free_blocks == free - 1
        self.sim.run()
        assert staged.transfer_done.triggered
        mem_move.release_staged("gpu:0")
        assert self.manager.free_blocks == free
        return self.sim.now - start
