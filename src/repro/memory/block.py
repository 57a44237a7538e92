"""Blocks and block handles — the unit of data flow in HetExchange.

The paper's routers operate purely on the *control plane*: "a task refers
to the target input data via a block handle.  The router transfers the
block handle from the producer to the consumer but not the actual data."
We keep the same split:

* :class:`Block` owns column arrays and lives on exactly one memory node;
* :class:`BlockHandle` is the lightweight token that flows through routers
  and device-crossing operators; it carries the residence node, byte size,
  optional routing metadata (the hash value produced by hash-pack, or the
  broadcast target id produced by mem-move's multicast), and the transfer
  event a consumer must wait on.

Pipelines must only touch blocks that are *local* to them; the executor
asserts this, which is the reproduction of the paper's locality invariant
("relational operators require their inputs to be local and unpacked").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

__all__ = ["Block", "BlockHandle"]

_block_ids = itertools.count()


class Block:
    """A fixed set of equally-long column arrays resident on one node."""

    __slots__ = ("block_id", "columns", "node_id", "logical_scale")

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        node_id: str,
        logical_scale: float = 1.0,
    ):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged block: column lengths {lengths}")
        self.block_id = next(_block_ids)
        self.columns = columns
        self.node_id = node_id
        self.logical_scale = logical_scale

    @property
    def num_tuples(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def nbytes(self) -> int:
        return int(sum(v.nbytes for v in self.columns.values()))

    @property
    def logical_bytes(self) -> float:
        return self.nbytes * self.logical_scale

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"block has no column {name!r}; available: {sorted(self.columns)}"
            ) from None

    def with_node(self, node_id: str) -> "Block":
        """A copy of this block resident on another node (post-transfer)."""
        clone = Block(dict(self.columns), node_id, self.logical_scale)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Block #{self.block_id} n={self.num_tuples} "
            f"cols={sorted(self.columns)} @{self.node_id}>"
        )


@dataclass
class BlockHandle:
    """Control-plane token referencing a block.

    ``transfer_done`` is the DMA process mem-move's producer half starts
    for a remote block; the consumer half waits on it before handing the
    block to the pipeline (Listing 1, pipelines 10-11 of the paper), and
    a failed transfer raises its error in the waiter.
    """

    block: Block
    #: routing key attached by hash-pack (all tuples share this hash value)
    hash_value: Optional[int] = None
    #: broadcast target id attached by mem-move multicast
    target_id: Optional[int] = None
    #: the transfer's DES process; wait on it before reading the block.
    #: Only the mem-move sets it, so it also marks the staging slot the
    #: consumer returns once done with the block
    transfer_done: Any = None
    #: the :class:`~repro.core.router.Morsels` this handle is one morsel
    #: of, when a router cut its block for a shared-queue group
    morsels: Any = None

    @property
    def node_id(self) -> str:
        return self.block.node_id

    @property
    def nbytes(self) -> int:
        return self.block.nbytes

    def routed_copy(self, block: Optional[Block] = None) -> "BlockHandle":
        """A new handle for the same (or a relocated) block."""
        return BlockHandle(
            block=block or self.block,
            hash_value=self.hash_value,
            target_id=self.target_id,
            transfer_done=self.transfer_done,
            morsels=self.morsels,
        )
