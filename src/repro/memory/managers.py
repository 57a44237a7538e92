"""Memory managers (operator state) and block managers (staging arenas).

Section 4.3 of the paper: "State memory is served by memory managers,
while staging memory is served by block managers.  Both ... are organized
as a set of independent, local components — one per memory node."

The behaviours reproduced here:

* **pre-allocated arenas** — block managers reserve their arena at
  initialisation, so acquiring a staging block at query time is a free-list
  pop, not an allocation;
* **device-local synchronisation** — only local devices acquire blocks
  directly; a remote request models the paper's "launching small tasks to
  the remote node" as a round trip (``REMOTE_ACQUIRE_LATENCY`` each way);
* **batched remote acquires, per phase, in the mem-move** — the phase's
  :class:`~repro.core.mem_move.MemMove` pays that round trip once per
  ``REMOTE_BATCH_SIZE`` acquires of a (block node, target node) pair,
  amortising it as the paper's batching does.  Each acquire still takes
  exactly one arena slot, so no slot sits idle and nothing outlives the
  phase.

Capacity is tracked in *logical* bytes so that SF1000-scale working sets
overflow an 8 GB GPU exactly as they would on the real machine (this is
what makes the DBMS G Q4.3 failure reproducible).
"""

from __future__ import annotations

from ..hardware.topology import MemoryNode, Server

__all__ = ["MemoryManager", "BlockManager", "BlockManagerSet", "OutOfDeviceMemory"]

#: Simulated one-way latency of poking a remote node's manager (seconds).
REMOTE_ACQUIRE_LATENCY = 25e-6
#: A phase's mem-move pays one remote round trip per this many acquires
#: of one (block node, target node) pair.
REMOTE_BATCH_SIZE = 8
#: Logical bytes of one staging block, and the arena every node reserves
#: at start-up: a fixed block count per DRAM node, a share of device
#: memory per GPU.
BLOCK_BYTES = 1 << 24
CPU_ARENA_BLOCKS = 4096
GPU_ARENA_FRACTION = 0.25


class OutOfDeviceMemory(MemoryError):
    """A memory node cannot satisfy an allocation (GPU memory pressure)."""


class MemoryManager:
    """Per-node allocator for operator state (hash tables, accumulators)."""

    def __init__(self, node: MemoryNode):
        self.node = node
        self._live: dict[int, float] = {}
        self._next_id = 0

    def allocate(self, logical_bytes: float, label: str = "") -> int:
        """Reserve state memory; returns a handle id for :meth:`free`."""
        try:
            self.node.allocate(logical_bytes)
        except MemoryError as err:
            raise OutOfDeviceMemory(
                f"state allocation of {logical_bytes:.3e} B "
                f"({label or 'unlabelled'}) failed on {self.node.node_id}: {err}"
            ) from err
        handle = self._next_id
        self._next_id += 1
        self._live[handle] = logical_bytes
        return handle

    @property
    def live_handles(self) -> int:
        """Outstanding (allocated, not yet freed) state allocations."""
        return len(self._live)

    @property
    def live_bytes(self) -> float:
        """Logical bytes currently held by live state allocations."""
        return float(sum(self._live.values()))

    def free(self, handle: int) -> None:
        nbytes = self._live.pop(handle)
        self.node.free(nbytes)

    def free_all(self) -> None:
        for handle in list(self._live):
            self.free(handle)


class BlockManager:
    """Per-node staging-block arena.

    ``arena_blocks`` staging slots of ``block_bytes`` each are reserved up
    front on the node; acquire/release recycle them.
    """

    def __init__(self, node: MemoryNode, block_bytes: float, arena_blocks: int):
        if arena_blocks <= 0:
            raise ValueError("arena must hold at least one block")
        self.node = node
        self.block_bytes = block_bytes
        self.arena_blocks = arena_blocks
        self._free = arena_blocks
        try:
            node.allocate(block_bytes * arena_blocks)
        except MemoryError as err:
            raise OutOfDeviceMemory(
                f"arena of {arena_blocks} x {block_bytes:.3e} B does not fit "
                f"on {node.node_id}"
            ) from err

    @property
    def free_blocks(self) -> int:
        return self._free

    def acquire(self, count: int = 1) -> int:
        """Take ``count`` staging blocks from the arena (device-local call)."""
        if count > self._free:
            raise OutOfDeviceMemory(
                f"block arena on {self.node.node_id} exhausted "
                f"(requested {count}, free {self._free}/{self.arena_blocks})"
            )
        self._free -= count
        return count

    def release(self, count: int = 1) -> None:
        if self._free + count > self.arena_blocks:
            raise ValueError("releasing more blocks than were acquired")
        self._free += count


class BlockManagerSet:
    """All block managers of a server, one per memory node."""

    def __init__(self, server: Server):
        self.server = server
        self.block_bytes = BLOCK_BYTES
        self.managers: dict[str, BlockManager] = {}
        for node in server.memory_nodes.values():
            if node.kind.value == "gpu":
                arena = max(
                    1, int(node.capacity_bytes * GPU_ARENA_FRACTION / BLOCK_BYTES)
                )
            else:
                arena = CPU_ARENA_BLOCKS
            self.managers[node.node_id] = BlockManager(node, BLOCK_BYTES, arena)

    def manager(self, node_id: str) -> BlockManager:
        return self.managers[node_id]

    def release(self, node_id: str, count: int = 1) -> None:
        self.manager(node_id).release(count)

    def unaccounted_blocks(self) -> dict[str, int]:
        """Arena slots not free, per node.

        Between queries this must be all zeros: every staging slot a
        query acquired was either released by its consumers or reclaimed
        when the query was aborted.  A positive count is a staging leak
        (conservation checks assert on it).
        """
        return {
            node_id: manager.arena_blocks - manager.free_blocks
            for node_id, manager in self.managers.items()
        }
