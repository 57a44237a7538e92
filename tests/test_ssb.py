"""Tests for the SSB generator, schema conformance, and all 13 queries."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from repro.ssb.generator import _strings
from repro.ssb.queries import QUERY_GROUP
from repro.storage import Column
from scenario import reference_rows


@pytest.fixture(scope="module")
def tables():
    return generate_ssb(scale_factor=0.005, seed=13)


def table_digest(table) -> str:
    """sha256 over each column's name, dtype, value bytes and dictionary."""
    digest = hashlib.sha256()
    for name, column in table.columns.items():
        kind = f"{name}:{column.dtype.value}:{column.values.dtype.str}:"
        digest.update(kind.encode())
        digest.update(column.values.tobytes())
        if column.dictionary is not None:
            digest.update("\x00".join(column.dictionary.values).encode())
        digest.update(b"\x01")
    return digest.hexdigest()


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


#: table_digest of every table, recorded when each string was still built
#: per row and encoded through Column.from_strings: (scale factor, seed)
_DATE_DIGEST = "06938787e252422068614dcdd20bd2e4b133af89243ed757e83337f943e29280"
_TABLE_DIGESTS = {
    (0.0005, 1): {
        "date": _DATE_DIGEST,
        "customer": "3bbe936e29a2f8fef9c3e93f2b21e64c5ca205543796a172fea2fdb39d6a0fdd",
        "supplier": "50dcfcd2c8551784709e8691c304686636998afb2b2c50d58e433c2cde7dbf78",
        "part": "ca222d09f7ca6fade262a9ad8087abf5f28d4831bbf946fe7a0a92db31b79275",
        "lineorder": "1d032f11402af2ae18c9da6d29bef374b560370461d35d9f5d7708c66eb6d66f",
    },
    (0.005, 13): {
        "date": _DATE_DIGEST,
        "customer": "12eaa33f72e9faa3a9ab258d66889a10377032ea343395056f394d6d0c2d623c",
        "supplier": "08bb7881aa89610deec05e0c0643e3e7531063c470799110129ff4030369729f",
        "part": "7effd78070d20c6773943e1adf561b9c67b20380e673f5a5baa1f519a4b8d193",
        "lineorder": "df56cc13e7f97e3ffcd2e8abf56c054b81967ffdedb89b0e10c7145bfd026e29",
    },
    (0.01, 42): {
        "date": _DATE_DIGEST,
        "customer": "446e05db09fbb1d5538849d9497113e09e1fffec2f1589079a38616a78605e16",
        "supplier": "112436061c4333e4cbf6ae6af3b05a615e1af7a77b812196c20be60134dedeb2",
        "part": "f0f02ea6a2ceb48050f2d0e82eb9ad213268535f90d79b2c934cca4e25fbaf3e",
        "lineorder": "164639e7b012aa5b961181f5670d0440a2015431177b15343cfd967b328c30d8",
    },
    (0.2, 42): {
        "date": _DATE_DIGEST,
        "customer": "c244870328cc19d68694b36c2474f2446694bc5e3fd1cb1ec7b09d8c975c184d",
        "supplier": "8f371ef8d195376416d41e4ddab7d9c469fe847ce3f4efd2bf16fa905d06bcd3",
        "part": "a8a255d1106dd569810815da8309234b07c163642276ee1c4393d32a1f5cb522",
        "lineorder": "d81e8e7093086af3f219923a2eb07418db621a94bc177fe66bfb8bbacacb493c",
    },
}


class TestGeneratedTablesArePinned:
    """Encoding strings from their draws changed no value, dtype or
    dictionary: every simulated second downstream depends on these bytes."""

    @pytest.mark.parametrize("scale_factor,seed", list(_TABLE_DIGESTS))
    def test_tables_match_their_digests(self, scale_factor, seed):
        generated = generate_ssb(scale_factor=scale_factor, seed=seed)
        digests = {name: table_digest(table) for name, table in generated.items()}
        assert digests == _TABLE_DIGESTS[scale_factor, seed]

    @settings(max_examples=150, deadline=None)
    @given(
        # a three-letter alphabet repeats vocabulary strings, and
        # "MFGR#119" / "MFGR#1110" sort unlike their integer tuples
        vocabulary=st.lists(
            st.sampled_from(["", "a", "b", "ab", "MFGR#119", "MFGR#1110"]),
            min_size=1, max_size=12,
        ),
        draws=st.lists(st.integers(0, 63), max_size=60),
    )
    @example(vocabulary=["MFGR#119", "MFGR#1110", "MFGR#119"], draws=[])
    @example(vocabulary=["b", "a", "c", "a"], draws=[3, 3, 0])
    def test_strings_is_from_strings_of_the_looked_up_values(self, vocabulary, draws):
        index = np.array(draws, dtype=np.int64) % len(vocabulary)
        column = _strings("s", vocabulary, index)
        expected = Column.from_strings("s", [vocabulary[i] for i in index])
        assert column.dtype is expected.dtype
        assert column.values.dtype == expected.values.dtype
        assert column.values.tobytes() == expected.values.tobytes()
        assert column.dictionary.values == expected.dictionary.values


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
