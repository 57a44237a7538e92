"""Loading SSB data into an engine at paper-scale logical sizes.

The paper's experiments run SF100 (~60 GB, GPU-fitting working sets) and
SF1000 (~600 GB).  This reproduction generates a small *physical* dataset
and replays it through the cost model at the *logical* scale: each table's
blocks carry ``logical_rows / physical_rows`` as their byte multiplier
(per-table, because ``date`` is constant-size and ``part`` grows
logarithmically).  All engines are scaled identically, so relative shapes
are preserved (the rule is :func:`load_ssb`'s ``logical_sf`` and
:meth:`~repro.storage.catalog.Catalog.set_logical_scale`).
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..algebra.logical import Plan
from ..storage.catalog import Catalog
from ..storage.table import Table
from .generator import generate_ssb
from .schema import rows_at_scale

__all__ = ["load_ssb", "working_set_bytes", "ssb_logical_scales"]


class _Engine(Protocol):
    """What loading needs of an engine: Proteus and both baseline proxies."""

    catalog: Catalog

    def register(self, table: Table) -> None: ...


def ssb_logical_scales(
    tables: dict[str, Table], logical_sf: float
) -> dict[str, float]:
    """Per-table multipliers that replay physical tables at ``logical_sf``."""
    return {
        name: rows_at_scale(name, logical_sf) / table.num_rows
        for name, table in tables.items()
    }


def load_ssb(
    engine: _Engine,
    physical_sf: float = 0.01,
    logical_sf: Optional[float] = None,
    seed: int = 42,
    tables: Optional[dict[str, Table]] = None,
) -> dict[str, Table]:
    """Generate (or reuse) SSB tables and register them with an engine.

    ``logical_sf`` sets the scale the cost model sees; ``None`` keeps
    physical sizes (correctness tests).  Returns the table dict so callers
    can share one generated dataset across many engines.
    """
    if tables is None:
        tables = generate_ssb(scale_factor=physical_sf, seed=seed)
    for table in tables.values():
        engine.register(table)
    if logical_sf is not None:
        for name, scale in ssb_logical_scales(tables, logical_sf).items():
            engine.catalog.set_logical_scale(name, scale)
    return tables


def working_set_bytes(catalog: Catalog, plan: Plan) -> float:
    """Logical bytes of every column a plan scans (the paper's working set)."""
    total = 0.0
    for scan_node in plan.scans():
        total += catalog.logical_bytes(scan_node.table, scan_node.columns)
    return total
