"""Tests for the DBMS C and DBMS G baseline proxies."""


import numpy as np
import pytest

from repro import ExecutionConfig, Proteus
from repro.baselines import DBMSC, DBMSG, GpuMemoryError, UnsupportedQueryError
from repro.baselines.common import decompose_star, plan_has_string_inequality
from repro.algebra.expressions import col
from repro.algebra.logical import (
    LogicalFilter,
    LogicalProject,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    build_side,
    scan,
)
from repro.engine.reference import ReferenceExecutor
from repro.storage import Column, DataType, Table
from repro.ssb import SSB_QUERY_IDS, ssb_logical_scales, ssb_query
from scenario import reference_rows, ssb_tables


def _normalise(rows):
    return sorted(
        tuple(round(v, 4) if isinstance(v, float) else v for v in row)
        for row in rows
    )


def _dbms_c():
    tables = ssb_tables()
    engine = DBMSC(segment_rows=2048)
    for table in tables.values():
        engine.register(table)
    return engine


def _dbms_g(logical_sf=None):
    tables = ssb_tables()
    engine = DBMSG(segment_rows=2048)
    for table in tables.values():
        engine.register(table)
    if logical_sf:
        for name, scale in ssb_logical_scales(tables, logical_sf).items():
            engine.catalog.set_logical_scale(name, scale)
    return engine


class TestStarDecomposition:
    def test_star_shape(self):
        plan = ssb_query("Q2.1")
        star = decompose_star(plan)
        assert star.fact.table == "lineorder"
        assert len(star.joins) == 3
        assert star.group_keys == ["d_year", "p_brand1"]
        assert not star.scalar

    def test_scalar_shape(self):
        star = decompose_star(ssb_query("Q1.1"))
        assert star.scalar and len(star.joins) == 1
        assert len(star.fact_ops) == 1  # the fact filter

    def test_string_inequality_detection(self):
        engine = _dbms_g()
        assert plan_has_string_inequality(ssb_query("Q2.2"),
                                          engine.catalog.is_string)
        for qid in ("Q1.1", "Q2.1", "Q2.3", "Q3.3", "Q4.3"):
            assert not plan_has_string_inequality(ssb_query(qid),
                                                  engine.catalog.is_string)


class TestBuildSide:
    def test_chain_in_execution_order(self):
        dim = (
            scan("date", ["d_datekey", "d_year"])
            .filter(col("d_year") > 1992)
            .project([("dy", col("d_year") + 0)])
            .filter(col("dy") < 1998)
        )
        ops, scan_node = build_side(dim.root)
        assert scan_node.table == "date"
        assert [type(op) for op in ops] == [
            LogicalFilter, LogicalProject, LogicalFilter]
        assert ops[0].predicate.columns() == {"d_year"}
        assert ops[2].predicate.columns() == {"dy"}
        assert build_side(scan_node) == ([], scan_node)

    def test_nested_join_rejected(self):
        inner = scan("supplier", ["s_suppkey", "s_nation"]).join(
            scan("date", ["d_datekey"]), probe_key="s_suppkey",
            build_key="d_datekey")
        with pytest.raises(ValueError, match="joins inside build sides"):
            build_side(inner.root)
        with pytest.raises(UnsupportedQueryError, match="joins inside build"):
            decompose_star(scan("lineorder", ["lo_suppkey"]).join(
                inner, probe_key="lo_suppkey", build_key="s_suppkey"))
        with pytest.raises(ValueError, match="LogicalReduce in build side"):
            build_side(inner.reduce([agg_count()]).root)


class TestDBMSC:
    @pytest.mark.parametrize("qid", SSB_QUERY_IDS)
    def test_all_queries_match_reference(self, qid):
        engine = _dbms_c()
        plan = ssb_query(qid)
        result = engine.query(plan, workers=8)
        expected = reference_rows(qid)
        assert _normalise(result.rows) == _normalise(expected), qid

    def test_more_workers_is_faster(self):
        plan = ssb_query("Q2.1")
        slow = _dbms_c().query(plan, workers=2).seconds
        fast = _dbms_c().query(plan, workers=16).seconds
        assert fast < slow

    def test_worker_bounds_validated(self):
        with pytest.raises(ValueError):
            _dbms_c().query(ssb_query("Q1.1"), workers=0)
        with pytest.raises(ValueError):
            _dbms_c().query(ssb_query("Q1.1"), workers=99)


class TestDBMSG:
    @pytest.mark.parametrize("qid", [q for q in SSB_QUERY_IDS if q != "Q2.2"])
    def test_all_queries_match_reference(self, qid):
        engine = _dbms_g()
        plan = ssb_query(qid)
        result = engine.query(plan, gpu_resident=True, vector_tuples=4096)
        expected = reference_rows(qid)
        assert _normalise(result.rows) == _normalise(expected), qid

    def test_q22_unsupported_when_gpu_resident(self):
        with pytest.raises(UnsupportedQueryError, match="string inequality"):
            _dbms_g().query(ssb_query("Q2.2"), gpu_resident=True)

    def test_q22_cpu_fallback_is_correct_and_glacial(self):
        engine = _dbms_g(logical_sf=1000.0)
        result = engine.query(ssb_query("Q2.2"), gpu_resident=False)
        expected = reference_rows("Q2.2")
        assert _normalise(result.rows) == _normalise(expected)
        assert result.seconds > 3600, "paper: more than 1 hour at SF1000"

    def test_q43_fails_at_sf1000(self):
        engine = _dbms_g(logical_sf=1000.0)
        with pytest.raises(GpuMemoryError, match="cardinality"):
            engine.query(ssb_query("Q4.3"), gpu_resident=False,
                         vector_tuples=4096)

    def test_q43_succeeds_at_sf100(self):
        engine = _dbms_g(logical_sf=100.0)
        result = engine.query(ssb_query("Q4.3"), gpu_resident=True,
                              vector_tuples=4096)
        assert result.seconds > 0

    def test_out_of_core_slower_than_resident(self):
        plan = ssb_query("Q1.1")
        resident = _dbms_g(logical_sf=100.0).query(
            plan, gpu_resident=True, vector_tuples=4096).seconds
        streamed = _dbms_g(logical_sf=100.0).query(
            plan, gpu_resident=False, vector_tuples=4096).seconds
        assert streamed > resident * 2

    def test_filters_after_join_selectivity_insensitive(self):
        """DBMS G gathers from every dimension for every fact row, so a
        highly selective query costs about the same as an unselective one
        with the same join fan-out (the paper's Q3 observation)."""
        engine = _dbms_g(logical_sf=100.0)
        broad = engine.query(ssb_query("Q3.1"), vector_tuples=4096).seconds
        narrow = engine.query(ssb_query("Q3.4"), vector_tuples=4096).seconds
        assert narrow >= broad * 0.6

    def test_non_star_plan_rejected(self):
        # a projection inside a dimension is not supported by the dense
        # array layout
        inner = scan("date", ["d_datekey", "d_year"]).project(
            [("dy", col("d_year") + 0)])
        bad = scan("lineorder", ["lo_orderdate", "lo_revenue"]).join(
            inner, probe_key="lo_orderdate", build_key="d_datekey",
            payload=["dy"])
        # the computed dimension column defeats the dense-array layout
        with pytest.raises(UnsupportedQueryError):
            _dbms_g().query(
                bad.reduce([agg_sum(col("lo_revenue"), "s")]),
                vector_tuples=4096)


class TestAggregateKinds:
    """SSB aggregates are all ``sum``: min / max / grouped count and the
    empty-input scalar run through every engine here, and nowhere else."""

    @pytest.fixture(scope="class")
    def star(self):
        rng = np.random.default_rng(7)
        fact = Table("f", [
            Column.from_values("fk", DataType.INT32, rng.integers(0, 20, 5000)),
            Column.from_values("w", DataType.INT32, rng.integers(0, 1000, 5000)),
        ])
        dim = Table("d", [
            Column.from_values("dk", DataType.INT32, np.arange(20)),
            Column.from_strings("name", [f"n{i % 7}" for i in range(20)]),
        ])
        return {"f": fact, "d": dim}

    def _rows(self, star, plan):
        proteus, dbms_c, dbms_g = (
            cls(segment_rows=1024) for cls in (Proteus, DBMSC, DBMSG))
        for engine in (proteus, dbms_c, dbms_g):
            for table in star.values():
                engine.register(table)
        return {
            "reference": ReferenceExecutor(star).execute(plan),
            "proteus": proteus.query(
                plan, ExecutionConfig.cpu_only(4, block_tuples=256)).rows,
            "dbms_c": dbms_c.query(plan, workers=4, vector_tuples=512).rows,
            "dbms_g": dbms_g.query(plan, vector_tuples=512).rows,
        }

    def test_grouped_min_max_sum_count_agree(self, star):
        plan = scan("f", ["fk", "w"]).join(
            scan("d", ["dk", "name"]), probe_key="fk", build_key="dk",
        ).groupby(["name"], [
            agg_min(col("w"), "lo"), agg_max(col("w"), "hi"),
            agg_sum(col("w"), "total"), agg_count("n"),
        ]).order_by("name")
        rows = self._rows(star, plan)
        expected = rows.pop("reference")
        assert [r[0] for r in expected] == [f"n{i}" for i in range(7)]
        assert sum(r[4] for r in expected) == 5000
        for system, got in rows.items():
            assert got == expected, system

    def test_scalar_min_over_empty_input_is_none(self, star):
        plan = scan("f", ["fk", "w"]).filter(col("w") < 0).reduce(
            [agg_min(col("w"), "lo"), agg_count("n")])
        rows = self._rows(star, plan)
        assert rows.pop("reference") == [(None, 0)]
        for system, got in rows.items():
            assert got == [(None, 0)], system
