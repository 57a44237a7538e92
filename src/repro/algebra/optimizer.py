"""Join-order optimisation for star plans.

The paper delegates logical optimisation to Apache Calcite ("part of the
query optimization is handled by Apache Calcite"); the one decision that
materially shapes its SSB results is *probe order*: probing the most
selective dimension first lets the engine drop fact tuples before the
expensive probes (this is why CPU engines exceed the PCIe-bound GPU rate
on the highly selective Q3.4).

:func:`reorder_probes` reorders *consecutive* probe operators in a probe
chain by estimated build-side selectivity.  Selectivity is estimated the
honest way an optimizer with table statistics would: by evaluating the
dimension's (tiny) filter chain and counting survivors — dimension tables
are small, so this is the classic "sample the dimension" estimate.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..storage.catalog import Catalog
from .expressions import bind_strings
from .logical import LogicalFilter, LogicalNode, LogicalProject, build_side
from .physical import OpProbe, PipelineOp

__all__ = ["estimate_build_selectivity", "reorder_probes"]


def estimate_build_selectivity(catalog: Catalog, build: LogicalNode) -> float:
    """Fraction of dimension rows surviving the build side's filters.

    Under the star schema's uniform foreign keys this is also the fraction
    of fact tuples surviving the join — the quantity an optimizer orders
    probes by.
    """
    ops, scan_node = build_side(build)
    table = catalog.table(scan_node.table)
    if table.num_rows == 0:
        return 0.0
    env = {name: table.column(name).values for name in scan_node.columns}
    for op in ops:
        if isinstance(op, LogicalFilter):
            mask = bind_strings(op.predicate, catalog.dictionary_of).evaluate(env)
            if np.ndim(mask) == 0:  # a constant predicate: all rows or none
                size = len(next(iter(env.values()))) if env else 0
                mask = np.full(size, bool(mask))
            env = {name: values[mask] for name, values in env.items()}
        elif isinstance(op, LogicalProject):
            for alias, expr in op.exprs:
                bound = bind_strings(expr, catalog.dictionary_of)
                env[alias] = np.asarray(bound.evaluate(env))
    surviving = len(next(iter(env.values()))) if env else 0
    return surviving / table.num_rows


def reorder_probes(
    chain: list[PipelineOp],
    rank_of: Callable[[str], float],
) -> list[PipelineOp]:
    """Sort runs of consecutive probes by DESCENDING rank.

    The rank rule for sequencing independent filters: rank_i =
    (1 - selectivity_i) / cost_i — drop the most tuples per unit of work
    first.  A probe against a cache-resident hash table (the date
    dimension) is far cheaper than one that pays DRAM-random traffic
    (customer at SF1000), so it sorts earlier at equal selectivity; this
    is what makes Q3.4 CPU-friendly in the paper.

    Only *adjacent* probes are permuted — never across a filter or
    projection — so data dependencies are preserved by construction.
    ``rank_of`` maps a probe's ``ht_id`` to its rank.
    """
    out: list[PipelineOp] = []
    run: list[OpProbe] = []

    def flush() -> None:
        run.sort(key=lambda probe: rank_of(probe.ht_id), reverse=True)
        out.extend(run)
        run.clear()

    for op in chain:
        if isinstance(op, OpProbe):
            run.append(op)
        else:
            flush()
            out.append(op)
    flush()
    return out


#: a cached probe is preferred over more-selective spilled probes only
#: when it is itself highly selective (a semijoin-like early filter)
CACHE_PRIORITY_SELECTIVITY = 0.05


def estimate_probe_cost(catalog: Catalog, build: LogicalNode,
                        build_key: str, payload: list[str],
                        llc_bytes: float, selectivity: float = 1.0) -> float:
    """Relative per-tuple probe cost for the rank rule.

    1 for a cache-resident hash table behind a highly selective filter
    (the Q3.4 ``Dec1997`` date probe), 4 otherwise: spilled tables pay
    cache-line traffic, and an unselective cached probe is ordered purely
    by selectivity — matching the behaviour the paper reports (CPU engines
    exceed the PCIe bound only on Q1.x and Q3.4, not on Q4.2/Q4.3 whose
    date predicate keeps ~29 %% of rows).
    """
    _, scan_node = build_side(build)
    table = catalog.table(scan_node.table)
    row_bytes = 16 * 2  # slot + row-id arrays at ~50% fill
    for name in payload:
        row_bytes += table.column(name).width_bytes if name in table.columns else 8
    logical_rows = table.num_rows * catalog.logical_scale(scan_node.table)
    spilled = logical_rows * row_bytes > llc_bytes
    if not spilled and selectivity < CACHE_PRIORITY_SELECTIVITY:
        return 1.0
    return 4.0
