"""Catalog: table registry plus data-placement bookkeeping.

Placement mirrors the paper's experiments:

* :meth:`Catalog.place_interleaved` — rows interleaved across the CPU
  sockets' DRAM nodes (Section 6.4: "the dataset is loaded and evenly
  distributed to the sockets"; also the SF1000 setting);
* :meth:`Catalog.place_gpu_partitioned` — rows randomly partitioned across
  GPU device memories (Proteus GPU at SF100);
* :meth:`Catalog.place_gpu_replicated` — small tables replicated to every
  GPU (how DBMS G pre-broadcasts dimension tables at SF100).

**Column names are global — an enforced invariant.**  Plans name columns
without a table qualifier (SSB prefixes every column with its table:
``lo_``, ``d_``, ...), so binding a string predicate, decoding a result
column or pricing a column's width all ask "which column is called
``x``?".  The catalog answers from one name -> (table, column) index
that :meth:`Catalog.register` fills, and ``register`` refuses a table
whose column name another table already owns: with first-registered-wins
lookup a predicate was bound through whichever table happened to be
registered first, so a query's answer depended on registration order.
:meth:`Catalog.column`, :meth:`Catalog.dictionary_of`,
:meth:`Catalog.is_string` and :meth:`Catalog.column_widths` are the
only column lookups the engines use.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..hardware.topology import Server
from .column import Column, StringDictionary
from .table import Placement, Segment, Table

__all__ = ["Catalog"]


class Catalog:
    """All tables known to an engine, with their physical placement."""

    def __init__(self, server: Server, segment_rows: int = 1 << 20):
        if segment_rows <= 0:
            raise ValueError("segment_rows must be positive")
        self.server = server
        self.segment_rows = segment_rows
        self.tables: dict[str, Table] = {}
        #: column name -> (owning table, column); names are global
        self._columns: dict[str, tuple[str, Column]] = {}
        self.placements: dict[str, Placement] = {}
        #: replicas: table -> node ids holding a full copy
        self.replicas: dict[str, set[str]] = {}
        #: per-table logical byte multiplier (see :meth:`set_logical_scale`):
        #: a physically small table replayed as an SF100-sized stream has
        #: scale = logical_rows / physical_rows
        self.logical_scales: dict[str, float] = {}

    # -- registration ------------------------------------------------------

    def register(self, table: Table, placement: Optional[Placement] = None) -> None:
        """Register ``table``; defaults to interleaved CPU placement."""
        if table.name in self.tables:
            raise ValueError(f"table {table.name!r} already registered")
        for name in table.columns:
            if name in self._columns:
                raise ValueError(
                    f"column {name!r} of table {table.name!r} is already "
                    f"registered by table {self._columns[name][0]!r}; column "
                    f"names are global to a catalog"
                )
        self.tables[table.name] = table
        for name, column in table.columns.items():
            self._columns[name] = (table.name, column)
        self.placements[table.name] = placement or self._interleaved(table)
        self.replicas[table.name] = set()

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"unknown table {name!r}; registered: {sorted(self.tables)}"
            ) from None

    def column(self, name: str) -> Optional[Column]:
        """The registered column called ``name``; ``None`` for a name no
        table owns (a computed alias, an aggregate's output)."""
        owner = self._columns.get(name)
        return owner[1] if owner is not None else None

    def dictionary_of(self, name: str) -> Optional[StringDictionary]:
        """The string dictionary behind column ``name``, if it has one."""
        column = self.column(name)
        return column.dictionary if column is not None else None

    def is_string(self, name: str) -> bool:
        return self.dictionary_of(name) is not None

    def column_widths(self) -> dict[str, int]:
        """Byte width of every registered column, by name."""
        return {
            name: column.width_bytes for name, (_, column) in self._columns.items()
        }

    def placement(self, name: str) -> Placement:
        self.table(name)  # raise a helpful error for unknown tables
        return self.placements[name]

    def set_logical_scale(self, name: str, scale: float) -> None:
        """Replay ``name`` through the cost model at ``scale`` x its bytes."""
        if scale <= 0:
            raise ValueError(f"logical scale must be positive, got {scale}")
        self.table(name)
        self.logical_scales[name] = float(scale)

    def logical_scale(self, name: str) -> float:
        return self.logical_scales.get(name, 1.0)

    def logical_bytes(self, name: str, columns: Optional[Iterable[str]] = None) -> float:
        """Logical (scaled) bytes of a table's columns."""
        table = self.table(name)
        return table.column_bytes(columns) * self.logical_scale(name)

    # -- placement strategies ------------------------------------------------

    def _interleaved(self, table: Table) -> Placement:
        nodes = [n.node_id for n in self.server.interleaved_dram_nodes()]
        return self._round_robin(table, nodes)

    def _round_robin(self, table: Table, nodes: list[str]) -> Placement:
        segments = []
        index = 0
        for start in range(0, table.num_rows, self.segment_rows):
            stop = min(start + self.segment_rows, table.num_rows)
            segments.append(
                Segment(table.name, start, stop, nodes[index % len(nodes)])
            )
            index += 1
        if not segments:  # empty table still needs one (empty) segment
            segments.append(Segment(table.name, 0, 0, nodes[0]))
        return Placement(segments)

    def place_interleaved(self, name: str) -> None:
        """(Re)place a table interleaved across CPU DRAM nodes."""
        table = self.table(name)
        self.placements[name] = self._interleaved(table)

    def place_gpu_partitioned(self, name: str, seed: int = 0) -> None:
        """Randomly partition a table's segments across all GPU memories.

        This is the SF100 setting for Proteus GPU: "Proteus GPU randomly
        partitions each table between the two GPUs".
        """
        table = self.table(name)
        if not self.server.gpus:
            raise ValueError("server has no GPUs")
        rng = np.random.default_rng(seed)
        nodes = [gpu.memory.node_id for gpu in self.server.gpus]
        segments = []
        for start in range(0, table.num_rows, self.segment_rows):
            stop = min(start + self.segment_rows, table.num_rows)
            node = nodes[int(rng.integers(len(nodes)))]
            segments.append(Segment(name, start, stop, node))
        if not segments:
            segments.append(Segment(name, 0, 0, nodes[0]))
        self.placements[name] = Placement(segments)

    def place_gpu_replicated(self, name: str) -> None:
        """Replicate a (small) table into every GPU memory.

        Used for dimension tables in GPU-resident experiments; the base
        placement stays CPU-interleaved, and ``replicas`` records the full
        copies so scans can read the local replica.
        """
        self.table(name)  # validates the table is registered
        self.place_interleaved(name)
        self.replicas[name] = {gpu.memory.node_id for gpu in self.server.gpus}

    def is_replicated_on(self, name: str, node_id: str) -> bool:
        return node_id in self.replicas.get(name, set())

    # -- accounting ----------------------------------------------------------

    def bytes_on_node(self, node_id: str, columns: Optional[dict[str, Iterable[str]]] = None) -> int:
        """Total bytes resident on a node (optionally restricted per-table)."""
        total = 0
        for name, placement in self.placements.items():
            table = self.tables[name]
            names = list(columns.get(name, table.columns)) if columns else list(table.columns)
            width = sum(table.column(n).width_bytes for n in names)
            for seg in placement.segments:
                if seg.node_id == node_id:
                    total += seg.num_rows * width
            if self.is_replicated_on(name, node_id):
                total += table.num_rows * width
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Catalog tables={sorted(self.tables)}>"
