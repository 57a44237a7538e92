"""Unit tests for blocks, block managers and memory managers."""

import numpy as np
import pytest

from repro.hardware.sim import Simulator
from repro.hardware.topology import Server
from repro.memory import (
    Block,
    BlockHandle,
    BlockManagerSet,
    MemoryManager,
    OutOfDeviceMemory,
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
        blocks = BlockManagerSet(_server())
        manager = blocks.manager("gpu:1")
        free_before = manager.free_blocks
        # first acquire pays the round-trip and pre-acquires a batch
        latency = blocks.acquire_remote("cpu:0", "gpu:1")
        assert latency > 0
        assert manager.free_blocks == free_before - REMOTE_BATCH_SIZE
        # subsequent acquires are cache hits: free, no extra arena use
        for _ in range(REMOTE_BATCH_SIZE - 1):
            assert blocks.acquire_remote("cpu:0", "gpu:1") == 0.0
        assert manager.free_blocks == free_before - REMOTE_BATCH_SIZE
        # cache drained: the next one pays again
        assert blocks.acquire_remote("cpu:0", "gpu:1") > 0

    def test_caches_are_per_local_node(self):
        blocks = BlockManagerSet(_server())
        assert blocks.acquire_remote("cpu:0", "gpu:0") > 0
        # a different local node has its own (empty) cache
        assert blocks.acquire_remote("cpu:1", "gpu:0") > 0

    def test_release_all_caches_restores_arenas(self):
        blocks = BlockManagerSet(_server())
        manager = blocks.manager("gpu:0")
        initial = manager.free_blocks
        blocks.acquire_remote("cpu:0", "gpu:0")
        blocks.release("gpu:0")  # the block actually used
        blocks.release_all_caches()
        assert manager.free_blocks == initial
