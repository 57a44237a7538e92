"""The segmenter: leaf operator turning placed tables into block handles.

"In the left-hand side, the segmenter will split the input file into small
block-shaped partitions, that are treated as normal blocks.  Partitions'
block handles will be propagated to the router."

The segmenter is a pure control-plane operator: it walks the catalog's
placement for a table and emits :class:`~repro.memory.block.BlockHandle`\\ s
over zero-copy column views.  It runs single-threaded ("lightweight
threads like the segmenter at the bottom of the plan") and charges no
compute — the data flow cost is paid by mem-move and the consuming
pipelines.
"""

from __future__ import annotations

from typing import Iterator

from ..memory.block import Block, BlockHandle
from ..storage.catalog import Catalog

__all__ = ["Segmenter"]


class Segmenter:
    """Iterates a table's segments, slicing them into block-sized handles."""

    def __init__(
        self,
        catalog: Catalog,
        table: str,
        columns: list[str],
        block_tuples: int,
    ):
        self.catalog = catalog
        self.table = catalog.table(table)
        self.columns = list(columns)
        for name in self.columns:
            self.table.column(name)  # raise early on typos
        self.block_tuples = block_tuples
        #: the table's logical byte multiplier, stamped on every block
        self.logical_scale = catalog.logical_scale(table)

    def __iter__(self) -> Iterator[BlockHandle]:
        placement = self.catalog.placement(self.table.name)
        for segment in placement.segments:
            for start in range(segment.row_start, segment.row_stop, self.block_tuples):
                stop = min(start + self.block_tuples, segment.row_stop)
                columns = {
                    name: self.table.column(name).slice(start, stop)
                    for name in self.columns
                }
                block = Block(columns, segment.node_id, self.logical_scale)
                yield BlockHandle(block)

    def num_blocks(self) -> int:
        total = 0
        for segment in self.catalog.placement(self.table.name).segments:
            rows = segment.num_rows
            total += (rows + self.block_tuples - 1) // self.block_tuples
        return total
