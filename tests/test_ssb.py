"""Tests for the SSB generator, schema conformance, and all 13 queries."""

import numpy as np
import pytest

from repro import ExecutionConfig, Proteus
from repro.ssb import (
    NATIONS,
    REGIONS,
    SSB_QUERY_IDS,
    SSB_SCHEMAS,
    generate_ssb,
    load_ssb,
    rows_at_scale,
    ssb_logical_scales,
    ssb_query,
    working_set_bytes,
)
from repro.ssb.queries import QUERY_GROUP
from scenario import reference_rows


@pytest.fixture(scope="module")
def tables():
    return generate_ssb(scale_factor=0.005, seed=13)


class TestGenerator:
    def test_schema_conformance(self, tables):
        for name, table in tables.items():
            schema = SSB_SCHEMAS[name]
            assert table.schema.names == schema.names, name
            for column_type in schema:
                assert table.column(column_type.name).dtype is column_type.dtype

    def test_date_table_shape(self, tables):
        date = tables["date"]
        assert date.num_rows == 2556
        years = np.unique(date.column("d_year").values)
        assert list(years) == list(range(1992, 1999))
        datekeys = date.column("d_datekey").values
        assert datekeys[0] == 19920101
        # 2556 days starting 1992-01-01 (the SSB row count) end 1998-12-30
        assert datekeys[-1] == 19981230
        assert len(np.unique(datekeys)) == date.num_rows

    def test_foreign_key_integrity(self, tables):
        lineorder = tables["lineorder"]
        assert lineorder.column("lo_custkey").values.max() <= tables["customer"].num_rows
        assert lineorder.column("lo_custkey").values.min() >= 1
        assert lineorder.column("lo_partkey").values.max() <= tables["part"].num_rows
        assert lineorder.column("lo_suppkey").values.max() <= tables["supplier"].num_rows
        datekeys = set(tables["date"].column("d_datekey").values.tolist())
        orderdates = set(np.unique(lineorder.column("lo_orderdate").values).tolist())
        assert orderdates <= datekeys

    def test_value_domains(self, tables):
        lineorder = tables["lineorder"]
        quantity = lineorder.column("lo_quantity").values
        assert quantity.min() >= 1 and quantity.max() <= 50
        discount = lineorder.column("lo_discount").values
        assert discount.min() >= 0 and discount.max() <= 10
        revenue = lineorder.column("lo_revenue").values
        price = lineorder.column("lo_extendedprice").values
        assert np.all(revenue <= price)

    def test_dimension_string_structure(self, tables):
        customer = tables["customer"]
        regions = set(customer.column("c_region").decoded())
        assert regions <= set(REGIONS)
        nations = set(customer.column("c_nation").decoded())
        assert nations <= set(NATIONS)
        # city = first 9 chars of the nation padded, plus a digit
        for row_id in range(0, customer.num_rows, 97):
            row = customer.row(row_id)
            assert row["c_city"][:9].strip() in row["c_nation"][:9].strip()
        part = tables["part"]
        for row_id in range(0, part.num_rows, 211):
            row = part.row(row_id)
            assert row["p_category"].startswith(row["p_mfgr"])
            assert row["p_brand1"].startswith(row["p_category"])

    def test_determinism(self):
        a = generate_ssb(0.002, seed=5)
        b = generate_ssb(0.002, seed=5)
        for name in a:
            for column in a[name].columns:
                assert np.array_equal(a[name].column(column).values,
                                      b[name].column(column).values)

    def test_rows_at_scale(self):
        assert rows_at_scale("lineorder", 100) == 600_000_000
        assert rows_at_scale("date", 1000) == 2556
        assert rows_at_scale("part", 1) == 200_000
        assert rows_at_scale("part", 4) == 600_000
        with pytest.raises(KeyError):
            rows_at_scale("ghost", 1)

    def test_logical_scales(self, tables):
        scales = ssb_logical_scales(tables, 100.0)
        assert scales["date"] == pytest.approx(1.0)
        assert scales["lineorder"] == pytest.approx(
            600_000_000 / tables["lineorder"].num_rows)


class TestQueryDefinitions:
    def test_all_thirteen_defined(self):
        assert len(SSB_QUERY_IDS) == 13
        for qid in SSB_QUERY_IDS:
            plan = ssb_query(qid)
            assert plan.root is not None

    def test_groups(self):
        assert QUERY_GROUP["Q1.3"] == 1
        assert QUERY_GROUP["Q4.1"] == 4

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError, match="unknown SSB query"):
            ssb_query("Q9.9")

    def test_working_set_grows_with_joins(self, tables):
        engine = Proteus(segment_rows=2048)
        load_ssb(engine, tables=tables, logical_sf=100.0)
        q11 = working_set_bytes(engine.catalog, ssb_query("Q1.1"))
        q41 = working_set_bytes(engine.catalog, ssb_query("Q4.1"))
        assert q41 > q11


class TestQueryCorrectness:
    """All 13 SSB queries against the reference oracle, three configs."""

    @pytest.fixture(scope="class")
    def engines(self, tables):
        out = {}
        for mode in ("cpu", "gpu", "hybrid"):
            engine = Proteus(segment_rows=2048)
            load_ssb(engine, tables=tables)
            out[mode] = engine
        return out

    @staticmethod
    def _normalise(rows):
        return sorted(
            tuple(round(v, 4) if isinstance(v, float) else v for v in row)
            for row in rows
        )

    @pytest.mark.parametrize("qid", SSB_QUERY_IDS)
    @pytest.mark.parametrize("mode,config", [
        ("cpu", ExecutionConfig.cpu_only(8, block_tuples=4096)),
        ("gpu", ExecutionConfig.gpu_only([0, 1], block_tuples=4096)),
        ("hybrid", ExecutionConfig.hybrid(6, [0, 1], block_tuples=4096)),
    ])
    def test_query_matches_reference(self, engines, qid, mode, config):
        plan = ssb_query(qid)
        result = engines[mode].query(plan, config)
        expected = reference_rows(qid)
        assert self._normalise(result.rows) == self._normalise(expected), (
            f"{qid} on {mode}")

    def test_declared_ordering_respected(self, engines):
        plan = ssb_query("Q3.1")
        result = engines["cpu"].query(
            plan, ExecutionConfig.cpu_only(4, block_tuples=4096))
        years = [row[2] for row in result.rows]
        assert years == sorted(years)
        revenue_by_year = {}
        for row in result.rows:
            revenue_by_year.setdefault(row[2], []).append(row[3])
        for series in revenue_by_year.values():
            assert series == sorted(series, reverse=True)
