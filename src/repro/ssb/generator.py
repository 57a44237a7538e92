"""Star Schema Benchmark data generator (a NumPy dbgen).

Generates the five SSB tables at an arbitrary — possibly fractional —
*physical* scale factor, preserving the value distributions the SSB
queries' selectivities depend on:

* ``d_year`` spans 1992-1998, one row per calendar day;
* ``p_category = p_mfgr || digit``; ``p_brand1 = p_category || (1..40)``
  (so the lexicographic BETWEEN of Q2.2 selects exactly brands 21..28);
* city strings are the first nine characters of the nation padded with a
  digit (so Q3.3's ``'UNITED KI1'`` matches UNITED KINGDOM city #1);
* ``lo_discount`` uniform 0..10, ``lo_quantity`` uniform 1..50 (the Q1.x
  flight selectivities), ``lo_revenue = lo_extendedprice*(100-lo_discount)/100``.

The paper runs SF100 (~60 GB) and SF1000 (~600 GB); this reproduction
generates small physical data and replays it through the cost model at
the paper's logical scale (see ``repro.ssb.loader``).

A string column drawn from a fixed vocabulary is encoded straight from
its integer draw (:func:`_strings`), with no Python string per row; only
the per-key names ``c_name`` / ``s_name`` are formatted row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..storage.column import Column, StringDictionary
from ..storage.table import Table
from ..storage.types import DataType
from .schema import NATIONS, REGIONS, rows_at_scale

__all__ = ["SSBGenerator", "generate_ssb", "physical_rows"]

_SEASONS = ["Winter", "Spring", "Summer", "Fall", "Christmas"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_SHIPMODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
_COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream",
]
_CONTAINERS = [
    "SM CASE", "SM BOX", "SM BAG", "SM PKG", "MED CASE", "MED BOX", "MED BAG",
    "MED PKG", "LG CASE", "LG BOX", "LG BAG", "LG PKG",
]
_MONTHS = [
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
]
_WEEKDAYS = [
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
]


def physical_rows(table: str, scale_factor: float) -> int:
    """Physical row counts: like the SSB spec, but dimensions shrink
    proportionally below SF 1 (with floors) so tiny test datasets stay
    star-shaped."""
    if scale_factor >= 1:
        return rows_at_scale(table, scale_factor)
    if table == "lineorder":
        return max(1000, int(6_000_000 * scale_factor))
    if table == "customer":
        return max(300, int(30_000 * scale_factor))
    if table == "supplier":
        return max(100, int(2_000 * scale_factor))
    if table == "part":
        return max(1000, int(200_000 * scale_factor))
    if table == "date":
        return 2_556
    raise KeyError(f"unknown SSB table {table!r}")


#: city ``10 * nation + digit``: the nation's first nine characters, padded
_CITIES = [f"{nation[:9]:<9}{digit}" for nation in NATIONS for digit in range(10)]
_REGION_OF_NATION = [REGIONS[i // 5] for i in range(len(NATIONS))]
_PART_NAMES = [f"{color} part" for color in _COLORS]
#: manufacturer ``m - 1``, category ``5 * (m - 1) + c - 1`` and brand
#: ``40 * (5 * (m - 1) + c - 1) + b - 1`` for draws m, c in 1..5, b in 1..40
_MFGRS = [f"MFGR#{m}" for m in range(1, 6)]
_CATEGORIES = [f"MFGR#{m}{c}" for m in range(1, 6) for c in range(1, 6)]
_BRANDS = [
    f"MFGR#{m}{c}{b}" for m in range(1, 6) for c in range(1, 6) for b in range(1, 41)
]


def _strings(name: str, vocabulary: Sequence[str], index: np.ndarray) -> Column:
    """The string column whose row ``i`` is ``vocabulary[index[i]]``.

    Equal to ``Column.from_strings(name, [vocabulary[i] for i in index])``
    without a string per row: the dictionary holds the entries that occur
    (sorted as strings, which composite names do not follow: "MFGR#1110"
    < "MFGR#119"), and each row's code is read from a table the size of
    the vocabulary.
    """
    index = np.asarray(index, dtype=np.intp)
    present = np.flatnonzero(np.bincount(index, minlength=len(vocabulary)))
    dictionary = StringDictionary([vocabulary[i] for i in present])
    code_of = np.zeros(len(vocabulary), dtype=np.int32)
    code_of[present] = [dictionary.encode(vocabulary[i]) for i in present]
    return Column(name, DataType.STRING, code_of[index], dictionary)


@dataclass
class SSBGenerator:
    """Deterministic SSB generator at one physical scale factor."""

    scale_factor: float = 0.01
    seed: int = 42

    def generate(self) -> dict[str, Table]:
        rng = np.random.default_rng(self.seed)
        date = self._date()
        customer = self._customer(rng)
        supplier = self._supplier(rng)
        part = self._part(rng)
        lineorder = self._lineorder(rng, date, customer, supplier, part)
        return {
            "date": date,
            "customer": customer,
            "supplier": supplier,
            "part": part,
            "lineorder": lineorder,
        }

    # -- dimensions ------------------------------------------------------------

    def _date(self) -> Table:
        n = physical_rows("date", self.scale_factor)
        days = np.datetime64("1992-01-01", "D") + np.arange(n)
        years = days.astype("datetime64[Y]")
        months = days.astype("datetime64[M]")
        year = (years.astype(np.int64) + 1970).astype(np.int32)
        month = (months - years).astype(np.int32)  # 0 = January
        day = (days - months).astype(np.int32) + 1
        daynuminyear = (days - years).astype(np.int32) + 1
        # 0 = Monday; day 0 of datetime64, 1970-01-01, was a Thursday
        weekday = ((days.astype(np.int64) + 3) % 7).astype(np.int32)
        first, last = int(year[0]), int(year[-1])
        yearmonths = [f"{m[:3]}{y}" for y in range(first, last + 1) for m in _MONTHS]
        season = np.where(month == 11, 4, (month + 1) % 12 // 3)  # into _SEASONS
        holiday = (
            ((month == 0) & (day == 1))
            | ((month == 6) & (day == 4))
            | ((month == 11) & (day == 25))
        )
        datekey = year * 10000 + (month + 1) * 100 + day
        return Table("date", [
            Column("d_datekey", DataType.DATE32, datekey),
            _strings("d_dayofweek", _WEEKDAYS, weekday),
            _strings("d_month", _MONTHS, month),
            Column("d_year", DataType.INT32, year),
            Column("d_yearmonthnum", DataType.INT32, year * 100 + month + 1),
            _strings("d_yearmonth", yearmonths, (year - first) * 12 + month),
            Column("d_daynuminweek", DataType.INT32, weekday + 1),
            Column("d_daynuminmonth", DataType.INT32, day),
            Column("d_daynuminyear", DataType.INT32, daynuminyear),
            Column("d_monthnuminyear", DataType.INT32, month + 1),
            Column("d_weeknuminyear", DataType.INT32, (daynuminyear - 1) // 7 + 1),
            _strings("d_sellingseason", _SEASONS, season),
            Column("d_holidayfl", DataType.INT32, holiday),
            Column("d_weekdayfl", DataType.INT32, weekday < 5),
        ])

    def _customer(self, rng: np.random.Generator) -> Table:
        n = physical_rows("customer", self.scale_factor)
        nation_idx = rng.integers(0, len(NATIONS), n)
        digits = rng.integers(0, 10, n)
        return Table("customer", [
            Column("c_custkey", DataType.INT32, np.arange(1, n + 1, dtype=np.int32)),
            Column.from_strings("c_name", [f"Customer#{i:09d}" for i in range(1, n + 1)]),
            _strings("c_city", _CITIES, nation_idx * 10 + digits),
            _strings("c_nation", NATIONS, nation_idx),
            _strings("c_region", _REGION_OF_NATION, nation_idx),
            _strings("c_mktsegment", _SEGMENTS, rng.integers(0, 5, n)),
        ])

    def _supplier(self, rng: np.random.Generator) -> Table:
        n = physical_rows("supplier", self.scale_factor)
        nation_idx = rng.integers(0, len(NATIONS), n)
        digits = rng.integers(0, 10, n)
        return Table("supplier", [
            Column("s_suppkey", DataType.INT32, np.arange(1, n + 1, dtype=np.int32)),
            Column.from_strings("s_name", [f"Supplier#{i:09d}" for i in range(1, n + 1)]),
            _strings("s_city", _CITIES, nation_idx * 10 + digits),
            _strings("s_nation", NATIONS, nation_idx),
            _strings("s_region", _REGION_OF_NATION, nation_idx),
        ])

    def _part(self, rng: np.random.Generator) -> Table:
        n = physical_rows("part", self.scale_factor)
        mfgr = rng.integers(1, 6, n) - 1
        category = mfgr * 5 + rng.integers(1, 6, n) - 1
        brand = category * 40 + rng.integers(1, 41, n) - 1
        name = rng.integers(0, 1 << 30, n) % len(_COLORS)
        return Table("part", [
            Column("p_partkey", DataType.INT32, np.arange(1, n + 1, dtype=np.int32)),
            _strings("p_name", _PART_NAMES, name),
            _strings("p_mfgr", _MFGRS, mfgr),
            _strings("p_category", _CATEGORIES, category),
            _strings("p_brand1", _BRANDS, brand),
            _strings("p_color", _COLORS, rng.integers(0, len(_COLORS), n)),
            Column("p_size", DataType.INT32,
                   rng.integers(1, 51, n).astype(np.int32)),
            _strings("p_container", _CONTAINERS, rng.integers(0, len(_CONTAINERS), n)),
        ])

    # -- fact ---------------------------------------------------------------------

    def _lineorder(
        self,
        rng: np.random.Generator,
        date: Table,
        customer: Table,
        supplier: Table,
        part: Table,
    ) -> Table:
        n = physical_rows("lineorder", self.scale_factor)
        datekeys = date.column("d_datekey").values
        orderdate = datekeys[rng.integers(0, len(datekeys), n)]
        commit_offset = rng.integers(30, 90, n)
        commitdate = datekeys[
            np.minimum(
                rng.integers(0, len(datekeys), n) + commit_offset, len(datekeys) - 1
            )
        ]
        quantity = rng.integers(1, 51, n).astype(np.int32)
        discount = rng.integers(0, 11, n).astype(np.int32)
        price = rng.integers(900_00, 10_494_50, n).astype(np.int32) // 100
        revenue = (price.astype(np.int64) * (100 - discount) // 100).astype(np.int32)
        supplycost = (price.astype(np.int64) * 6 // 10).astype(np.int32)
        return Table("lineorder", [
            Column("lo_orderkey", DataType.INT64,
                   np.arange(1, n + 1, dtype=np.int64) // 7 + 1),
            Column("lo_linenumber", DataType.INT32,
                   (np.arange(n, dtype=np.int32) % 7) + 1),
            Column("lo_custkey", DataType.INT32,
                   rng.integers(1, customer.num_rows + 1, n).astype(np.int32)),
            Column("lo_partkey", DataType.INT32,
                   rng.integers(1, part.num_rows + 1, n).astype(np.int32)),
            Column("lo_suppkey", DataType.INT32,
                   rng.integers(1, supplier.num_rows + 1, n).astype(np.int32)),
            Column("lo_orderdate", DataType.DATE32, orderdate),
            Column("lo_quantity", DataType.INT32, quantity),
            Column("lo_extendedprice", DataType.INT32, price),
            Column("lo_ordtotalprice", DataType.INT32,
                   (price.astype(np.int64) * quantity % (2**31 - 1)).astype(np.int32)),
            Column("lo_discount", DataType.INT32, discount),
            Column("lo_revenue", DataType.INT32, revenue),
            Column("lo_supplycost", DataType.INT32, supplycost),
            Column("lo_tax", DataType.INT32, rng.integers(0, 9, n).astype(np.int32)),
            Column("lo_commitdate", DataType.DATE32, commitdate),
            _strings("lo_shipmode", _SHIPMODES, rng.integers(0, 7, n)),
        ])


def generate_ssb(scale_factor: float = 0.01, seed: int = 42) -> dict[str, Table]:
    """Generate all five SSB tables at a physical scale factor."""
    return SSBGenerator(scale_factor=scale_factor, seed=seed).generate()
