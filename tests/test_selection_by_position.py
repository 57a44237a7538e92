"""Selections in generated pipelines, and predicates that fold to a constant.

A filter or probe in a generated pipeline turns its predicate into one
index array of surviving row positions (one ``nonzero()``).  Columns are
materialised late: a selection compacts only the arrays that already
hold one value per current row, an unpacked column is gathered once,
through ``_sel``, when an operator first reads it, and a probe's payload
waits as the probe's row ids until it is read.  These tests pin that
shape on every SSB query; check every block statistic and simulated
second of the 13 SSB queries on three device configurations, and the
block statistics of the two edge cases (a probe that keeps every row, a
filter that keeps none), against the drives' entries in
``tests/signatures.json`` (first taken from the column-at-every-selection
and boolean-mask pipelines); and cover the predicates that bind to a
constant: ``c == 'absent'`` keeps no row and ``c != 'absent'`` keeps
every row, on either side of a join.
"""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from fingerprint import Fingerprint
from repro import ExecutionConfig, Proteus, agg_count, agg_sum, col, scan
from repro.algebra.expressions import Literal, bind_strings
from repro.algebra.optimizer import estimate_build_selectivity
from repro.engine.reference import ReferenceExecutor
from repro.ssb import SSB_QUERY_IDS, load_ssb, ssb_query
from scenario import ssb_tables

CONFIGS = {
    "cpu": ExecutionConfig.cpu_only(4),
    "gpu": ExecutionConfig.gpu_only([0, 1]),
    "hybrid": ExecutionConfig.hybrid(4, [0, 1]),
}


def _engine(tables) -> Proteus:
    engine = Proteus(segment_rows=4096)
    load_ssb(engine, tables=tables)
    return engine


# -- the generated shape ---------------------------------------------------


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_every_selection_is_one_nonzero_and_takes(label):
    engine = _engine(ssb_tables())
    selections = 0
    for query in SSB_QUERY_IDS:
        for stage, source in engine.pipeline_sources(
            ssb_query(query), CONFIGS[label]
        ).items():
            where = f"{query} {stage}"
            # no column is compacted with a boolean mask
            assert not re.search(r"\b(\w+) = \1\[", source), where
            assert "count_nonzero" not in source, where
            # keys go to the join table and the grouping as stored; a
            # group sink folds them itself and sums by bincount
            assert ".astype(np.int64)" not in source, where
            assert "np.add.at" not in source and "np.stack(" not in source, where
            # an unpacked column is gathered at most once
            gathered = re.findall(r"^ +(\w+) = \1\.take\(_sel\)$", source, re.M)
            assert len(gathered) == len(set(gathered)), where
            # one blank-line-separated block per fused operator
            for block in source.split("\n\n"):
                op = block.lstrip().splitlines()[0]
                # a filter over no column is folded: no nonzero() runs
                selects = op.startswith("# hash-join probe") or (
                    op == "# filter"
                    and "np.zeros(0" not in block
                    and ".nonzero()" in block
                )
                assert block.count(".nonzero()") == int(selects), (where, block)
                selections += selects
                # compaction by the selection runs only when a row dropped
                if ".take(_nz)" in block:
                    assert "if _nz.shape[0] != _n:" in block, (where, block)
    assert selections > 2 * len(SSB_QUERY_IDS)


# -- no statistic moved -------------------------------------------------------

#: the 13 SSB queries on three device configurations at two block sizes
#: (SF 0.01 / seed 42, segments of 4 096 rows): each is one drive, with
#: its entry in ``tests/signatures.json``
STATS_DRIVES = [(label, block) for label in sorted(CONFIGS) for block in (256, 65536)]


def _stats(result) -> dict:
    """Every ``profile.device_stats`` field, floats by ``float.hex``."""
    return {
        device: tuple(
            v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(block)
        )
        for device, block in sorted(result.profile.device_stats.items())
    }


@pytest.fixture(scope="module")
def sf01_seed42():
    return ssb_tables(0.01, 42)


@pytest.mark.parametrize("label, block_tuples", STATS_DRIVES)
def test_no_statistic_moved(sf01_seed42, label, block_tuples):
    """SSB sums are integer-valued, so result rows cannot show a
    reordered float add; the drive's block statistics and simulated
    seconds, digested into its entry, can."""
    engine = _engine(sf01_seed42)
    config = dataclasses.replace(CONFIGS[label], block_tuples=block_tuples)
    digest = hashlib.sha256()
    with Fingerprint() as fingerprint:
        for query in SSB_QUERY_IDS:
            result = engine.query(ssb_query(query), config)
            digest.update(repr((query, _stats(result), result.seconds.hex())).encode())
    fingerprint.check(f"selection/{label}/{block_tuples}", stats=digest.hexdigest())


# -- edge selections: every row kept, no row kept -----------------------------

DATE_JOIN = (
    scan("lineorder", ["lo_orderdate", "lo_revenue"])
    .join(scan("date", ["d_datekey", "d_year"]),
          probe_key="lo_orderdate", build_key="d_datekey", payload=["d_year"])
    .groupby(["d_year"], [agg_sum(col("lo_revenue"), "revenue"), agg_count("n")])
    .order_by("d_year")
)
#: the date probe keeps every row, then the quantity filter (1..50) none
EMPTY_AFTER_DATE_JOIN = (
    scan("lineorder", ["lo_orderdate", "lo_quantity", "lo_revenue"])
    .join(scan("date", ["d_datekey"]),
          probe_key="lo_orderdate", build_key="d_datekey", payload=[])
    .filter(col("lo_quantity") > 50)
    .reduce([agg_sum(col("lo_revenue"), "revenue"), agg_count("n")])
)
EDGE_PLANS = {"date_join": DATE_JOIN, "empty_after_date_join": EMPTY_AFTER_DATE_JOIN}

@pytest.mark.parametrize("block_tuples", [256, 65536])
@pytest.mark.parametrize("name", sorted(EDGE_PLANS))
def test_edge_selections_match_reference_and_pinned_stats(name, block_tuples):
    """A hybrid run (4 cores, GPUs 0 and 1) over SSB SF 0.005, seed 13:
    reference rows, and ``profile.device_stats`` in the drive's entry."""
    tables = ssb_tables()
    plan = EDGE_PLANS[name]
    config = ExecutionConfig.hybrid(4, [0, 1], block_tuples=block_tuples)
    with Fingerprint() as fingerprint:
        result = _engine(tables).query(plan, config)
    assert result.rows == ReferenceExecutor(tables).execute(plan)
    stats = hashlib.sha256(repr(_stats(result)).encode()).hexdigest()
    fingerprint.check(f"selection/{name}/{block_tuples}", stats=stats)


# -- predicates that bind to a constant ----------------------------------------


@pytest.fixture(scope="module")
def sf01():
    """SSB SF 0.01, seed 1: 100 suppliers, no city named NOWHERE."""
    return ssb_tables(0.01, 1)


def _probe_side(predicate):
    return (
        scan("supplier", ["s_suppkey", "s_city"])
        .filter(predicate)
        .reduce([agg_sum(col("s_suppkey"), "s"), agg_count("n")])
    )


def _build_side(predicate):
    return (
        scan("lineorder", ["lo_suppkey", "lo_revenue"])
        .join(scan("supplier", ["s_suppkey", "s_city"]).filter(predicate),
              probe_key="lo_suppkey", build_key="s_suppkey", payload=[])
        .reduce([agg_sum(col("lo_revenue"), "revenue")])
    )


def test_absent_string_binds_to_a_boolean_literal(sf01):
    resolver = _engine(sf01).catalog.dictionary_of
    for predicate, value in (
        (col("s_city") != "NOWHERE", True),
        (~(col("s_city") == "NOWHERE"), True),
        (col("s_city") == "NOWHERE", False),
        (~(col("s_city") != "NOWHERE"), False),
    ):
        bound = bind_strings(predicate, resolver)
        assert isinstance(bound, Literal) and bound.value is value, predicate


def test_absent_string_build_selectivity(sf01):
    catalog = _engine(sf01).catalog
    supplier = scan("supplier", ["s_suppkey", "s_city"])
    assert estimate_build_selectivity(
        catalog, supplier.filter(col("s_city") != "NOWHERE").root) == 1.0
    assert estimate_build_selectivity(
        catalog, supplier.filter(col("s_city") == "NOWHERE").root) == 0.0


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_not_equal_absent_keeps_every_row(sf01, label):
    keys = sf01["supplier"].column("s_suppkey").values
    assert keys.size == 100
    engine = _engine(sf01)
    reference = ReferenceExecutor(sf01)

    probe = _probe_side(col("s_city") != "NOWHERE")
    result = engine.query(probe, CONFIGS[label])
    assert result.value("s") == float(keys.sum()) == 5050.0
    assert result.value("n") == 100
    assert result.rows == reference.execute(probe)

    build = _build_side(col("s_city") != "NOWHERE")
    lineorder = sf01["lineorder"]
    hand = lineorder.column("lo_revenue").values[
        np.isin(lineorder.column("lo_suppkey").values, keys)
    ].sum()
    result = engine.query(build, CONFIGS[label])
    assert result.value("revenue") == float(hand) == 324_508_167.0
    assert result.rows == reference.execute(build)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_equal_absent_keeps_no_row(sf01, label):
    engine = _engine(sf01)
    reference = ReferenceExecutor(sf01)
    probe = _probe_side(col("s_city") == "NOWHERE")
    result = engine.query(probe, CONFIGS[label])
    assert (result.value("s"), result.value("n")) == (0.0, 0)
    assert result.rows == reference.execute(probe)
    build = _build_side(col("s_city") == "NOWHERE")
    result = engine.query(build, CONFIGS[label])
    assert result.value("revenue") == 0.0
    assert result.rows == reference.execute(build)
