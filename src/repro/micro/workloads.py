"""Workloads of the paper's microbenchmarks (Section 6.4).

Two queries, chosen by the paper to stress opposite resources:

* **sum** — ``SELECT SUM(a) FROM t`` over a single 23 GB column:
  bandwidth-intensive and thus CPU-friendly ("the GPU is behind the
  much-slower-than-memory-bus PCIe");
* **join** — ``SELECT COUNT(*)`` over a non-partitioned 1:N equijoin of a
  23 GB probe column against a 7.7 MB build column: random-access bound
  and thus GPU-friendly.

Data is generated at a small physical size and replayed at the paper's
logical sizes; "the dataset is loaded and evenly distributed to the
sockets".
"""

from __future__ import annotations

import numpy as np

from ..algebra.expressions import col
from ..algebra.logical import Plan, agg_count, agg_sum, scan
from ..storage.column import Column
from ..storage.table import Table
from ..storage.types import DataType

__all__ = ["make_sum_table", "make_join_tables", "sum_query", "join_count_query"]

#: the paper's probe-side input (23 GB single int64 column)
SUM_BYTES = 23e9
#: the paper's build-side input (7.7 MB key column)
BUILD_BYTES = 7.7e6


def make_sum_table(physical_rows: int = 200_000, seed: int = 3) -> Table:
    """Single int64 column named 'a' (plus its scale is set by the caller)."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1_000, physical_rows).astype(np.int64)
    return Table("t", [Column("a", DataType.INT64, values)])


def make_join_tables(
    probe_rows: int = 200_000,
    build_rows: int = 4_000,
    seed: int = 3,
) -> tuple[Table, Table]:
    """1:N join inputs: unique build keys, probe keys drawn uniformly.

    Every probe key matches (the paper counts join results, N probe rows
    per build key on average).
    """
    rng = np.random.default_rng(seed)
    build_keys = np.arange(build_rows, dtype=np.int64)
    probe_keys = rng.integers(0, build_rows, probe_rows).astype(np.int64)
    probe = Table("probe", [Column("pk", DataType.INT64, probe_keys)])
    build = Table("build", [Column("bk", DataType.INT64, build_keys)])
    return probe, build


def sum_query() -> Plan:
    """SELECT SUM(a) FROM t."""
    return scan("t", ["a"]).reduce([agg_sum(col("a"), "total")])


def join_count_query() -> Plan:
    """SELECT COUNT(*) FROM probe JOIN build ON pk = bk."""
    return (
        scan("probe", ["pk"])
        .join(scan("build", ["bk"]), probe_key="pk", build_key="bk", payload=[])
        .reduce([agg_count("matches")])
    )
