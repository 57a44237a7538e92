"""Memory infrastructure: blocks, block managers, state memory managers."""

from .block import Block, BlockHandle
from .managers import (
    REMOTE_ACQUIRE_LATENCY,
    REMOTE_BATCH_SIZE,
    BlockManager,
    BlockManagerSet,
    MemoryManager,
    OutOfDeviceMemory,
)

__all__ = [
    "Block",
    "BlockHandle",
    "MemoryManager",
    "BlockManager",
    "BlockManagerSet",
    "OutOfDeviceMemory",
    "REMOTE_ACQUIRE_LATENCY",
    "REMOTE_BATCH_SIZE",
]
