"""Unit tests for columns, dictionaries, tables, schemas, catalog."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.sim import Simulator
from repro.hardware.topology import Server
from repro.storage import (
    Catalog,
    Column,
    DataType,
    Schema,
    StringDictionary,
    Table,
)
from repro.storage.types import ColumnType


class TestStringDictionary:
    def test_codes_are_sorted_order(self):
        d = StringDictionary(["pear", "apple", "pear", "banana"])
        assert d.values == ["apple", "banana", "pear"]
        assert d.encode("apple") == 0
        assert d.encode("pear") == 2

    def test_decode_roundtrip(self):
        d = StringDictionary(["x", "y", "z"])
        for value in ("x", "y", "z"):
            assert d.decode(d.encode(value)) == value

    def test_encode_missing_raises(self):
        d = StringDictionary(["a"])
        with pytest.raises(KeyError):
            d.encode("zzz")

    def test_bounds_for_absent_values(self):
        d = StringDictionary(["b", "d", "f"])
        assert d.encode_bound("a") == 0
        assert d.encode_bound("c") == 1
        assert d.encode_bound("d") == 1
        assert d.encode_upper_bound("d") == 2
        assert d.encode_upper_bound("z") == 3

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.text(min_size=1, max_size=8), min_size=1,
                           max_size=40))
    def test_roundtrip_property(self, values):
        d = StringDictionary(values)
        codes = d.encode_array(values)
        assert d.decode_array(codes) == values

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.text(min_size=1, max_size=6), min_size=2,
                           max_size=30))
    def test_code_order_matches_string_order(self, values):
        """Dictionary codes preserve lexicographic comparisons — the
        property string-range predicate rewriting relies on."""
        d = StringDictionary(values)
        for a in values:
            for b in values:
                assert (d.encode(a) < d.encode(b)) == (a < b)


class TestColumn:
    def test_from_strings_builds_dictionary(self):
        column = Column.from_strings("c", ["b", "a", "b"])
        assert column.dtype is DataType.STRING
        assert list(column.values) == [1, 0, 1]
        assert column.decoded() == ["b", "a", "b"]

    def test_numeric_column_casts_dtype(self):
        column = Column.from_values("n", DataType.INT32, [1.0, 2.0])
        assert column.values.dtype == np.int32

    def test_string_column_requires_dictionary(self):
        with pytest.raises(ValueError):
            Column("s", DataType.STRING, np.array([0, 1], dtype=np.int32))

    def test_slice_is_view(self):
        column = Column.from_values("n", DataType.INT64, np.arange(10))
        view = column.slice(2, 5)
        assert list(view) == [2, 3, 4]
        assert view.base is column.values

    def test_nbytes(self):
        column = Column.from_values("n", DataType.INT32, np.arange(10))
        assert column.nbytes == 40
        assert column.width_bytes == 4


class TestSchemaAndTable:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([ColumnType("a", DataType.INT32), ColumnType("a", DataType.INT64)])

    def test_unknown_column_raises_helpfully(self):
        schema = Schema([ColumnType("a", DataType.INT32)])
        with pytest.raises(KeyError, match="unknown column"):
            schema.column("b")

    def test_ragged_table_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            Table("t", [
                Column.from_values("a", DataType.INT32, [1, 2]),
                Column.from_values("b", DataType.INT32, [1]),
            ])

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [])

    def test_row_decodes_strings(self):
        table = Table("t", [
            Column.from_values("a", DataType.INT32, [7, 8]),
            Column.from_strings("s", ["x", "y"]),
        ])
        assert table.row(1) == {"a": 8, "s": "y"}

    def test_column_bytes(self):
        table = Table("t", [
            Column.from_values("a", DataType.INT32, [1, 2]),
            Column.from_values("b", DataType.INT64, [1, 2]),
        ])
        assert table.column_bytes() == 2 * 4 + 2 * 8
        assert table.column_bytes(["a"]) == 8


class TestCatalog:
    def _catalog(self, segment_rows=100):
        sim = Simulator()
        return Catalog(Server.paper_machine(sim), segment_rows=segment_rows)

    def _table(self, rows=250):
        return Table("t", [Column.from_values("a", DataType.INT32,
                                              np.arange(rows))])

    def test_register_and_lookup(self):
        catalog = self._catalog()
        catalog.register(self._table())
        assert catalog.table("t").num_rows == 250
        with pytest.raises(KeyError, match="unknown table"):
            catalog.table("nope")

    def test_double_registration_rejected(self):
        catalog = self._catalog()
        catalog.register(self._table())
        with pytest.raises(ValueError):
            catalog.register(self._table())

    def test_column_names_are_global(self):
        """Plans name columns unqualified, so a second owner of a name
        would make a query's answer depend on registration order."""
        catalog = self._catalog()
        a = Table("a", [
            Column.from_values("ak", DataType.INT32, [0, 1]),
            Column.from_strings("name", ["p", "q"]),
        ])
        b = Table("b", [
            Column.from_values("bk", DataType.INT32, np.arange(6)),
            Column.from_strings("name", ["x", "y", "z", "x", "y", "z"]),
        ])
        catalog.register(b)
        with pytest.raises(ValueError, match="'name'.*'a'.*'b'"):
            catalog.register(a)
        assert sorted(catalog.tables) == ["b"]  # the refused table left no trace
        assert catalog.column("ak") is None and catalog.column_widths() == {
            "bk": 4, "name": 4}
        assert catalog.column("name") is b.column("name")
        assert catalog.dictionary_of("name").values == ["x", "y", "z"]
        assert catalog.is_string("name") and not catalog.is_string("bk")
        assert catalog.dictionary_of("bk") is None
        assert catalog.dictionary_of("ghost") is None

    def test_interleaved_placement_alternates_sockets(self):
        catalog = self._catalog(segment_rows=100)
        catalog.register(self._table(250))
        nodes = [s.node_id for s in catalog.placement("t").segments]
        assert nodes == ["cpu:0", "cpu:1", "cpu:0"]
        assert catalog.placement("t").num_rows == 250

    def test_gpu_partitioned_placement(self):
        catalog = self._catalog(segment_rows=50)
        catalog.register(self._table(250))
        catalog.place_gpu_partitioned("t", seed=1)
        nodes = catalog.placement("t").nodes()
        assert nodes <= {"gpu:0", "gpu:1"}
        assert catalog.placement("t").num_rows == 250

    def test_gpu_replication_flags(self):
        catalog = self._catalog()
        catalog.register(self._table())
        catalog.place_gpu_replicated("t")
        assert catalog.is_replicated_on("t", "gpu:0")
        assert catalog.is_replicated_on("t", "gpu:1")
        assert not catalog.is_replicated_on("t", "cpu:0")

    def test_logical_scale(self):
        catalog = self._catalog()
        catalog.register(self._table(250))
        assert catalog.logical_scale("t") == 1.0
        catalog.set_logical_scale("t", 100.0)
        assert catalog.logical_bytes("t") == 250 * 4 * 100.0
        with pytest.raises(ValueError):
            catalog.set_logical_scale("t", 0)

    def test_bytes_on_node(self):
        catalog = self._catalog(segment_rows=100)
        catalog.register(self._table(200))
        on0 = catalog.bytes_on_node("cpu:0")
        on1 = catalog.bytes_on_node("cpu:1")
        assert on0 == on1 == 100 * 4
