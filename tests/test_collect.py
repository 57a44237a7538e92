"""The one partial-aggregate merge, on its own.

Scalar partials merge through :func:`~repro.engine.collect.merge_scalar`;
grouped partials stay one :class:`~repro.jit.pipeline.GroupTable` from
the generated sink to the fleet result.  Both merges are used at two
levels — worker partials into a query result (the collector) and shard
results into a fleet result (``EngineFleet._merge``).  These tests pin
the merge rules directly, the contract the two-level use leans on (on
integer-valued float64, merging per worker and then per shard equals
merging everything at once, bit for bit), and the fleet's gather on
empty, failing and overflowing shard results.
"""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scenario import Scenario, batch, run_scenario, ssb_tables

from repro import (
    EngineFleet,
    ExecutionConfig,
    Proteus,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    col,
    lit,
    scan,
)
from repro.algebra.physical import CollectSpec
from repro.engine.collect import collect_result, merge_scalar
from repro.engine.reference import ReferenceExecutor
from repro.engine.results import ExecutionProfile
from repro.jit.pipeline import GroupTable, agg_identity, merge_agg
from repro.storage import Column, DataType, Table

AGGS = [
    agg_sum(col("v"), "total"),
    agg_count("n"),
    agg_min(col("v"), "lo"),
    agg_max(col("v"), "hi"),
]
CPU4 = ExecutionConfig.cpu_only(4, block_tuples=4096)

#: what a worker that saw no input reports: every aggregate's identity
EMPTY = {"total": 0.0, "n": 0, "lo": math.inf, "hi": -math.inf}


def _partial(values):
    """A worker's scalar partial over ``values`` (identities when empty)."""
    return {
        "total": float(sum(values)),
        "n": len(values),
        "lo": float(min(values)) if values else math.inf,
        "hi": float(max(values)) if values else -math.inf,
    }


class TestMergeScalar:
    def test_sum_count_min_max(self):
        merged = merge_scalar(AGGS, [_partial([3, 9]), _partial([1, 4, 7])])
        assert merged == {"total": 24.0, "n": 5, "lo": 1.0, "hi": 9.0}
        assert type(merged["n"]) is int

    def test_an_empty_partial_changes_nothing(self):
        parts = [_partial([3, 9]), _partial([1])]
        assert merge_scalar(AGGS, [parts[0], EMPTY, parts[1]]) == merge_scalar(
            AGGS, parts
        )

    def test_all_empty_input_finalises_min_max_to_none(self):
        for partials in ([], [EMPTY], [EMPTY, EMPTY]):
            assert merge_scalar(AGGS, partials) == {
                "total": 0.0, "n": 0, "lo": None, "hi": None,
            }

    def test_only_an_identity_min_or_max_is_none(self):
        # a sum is never None; a min is None only at +inf, a max only at -inf
        partial = {"total": math.inf, "n": 1, "lo": -math.inf, "hi": math.inf}
        assert merge_scalar(AGGS, [partial]) == partial
        partial = {"total": -math.inf, "n": 1, "lo": math.inf, "hi": -math.inf}
        empty = {"total": -math.inf, "n": 1, "lo": None, "hi": None}
        assert merge_scalar(AGGS, [partial]) == empty

    def test_an_already_finalised_empty_partial_is_skipped(self):
        # the fleet re-merges shard *results*: an empty shard's min/max
        # arrives as None, not as +-inf
        empty_shard = merge_scalar(AGGS, [EMPTY])
        merged = merge_scalar(AGGS, [empty_shard, merge_scalar(AGGS, [_partial([5])])])
        assert merged == {"total": 5.0, "n": 1, "lo": 5.0, "hi": 5.0}
        assert merge_scalar(AGGS, [empty_shard, empty_shard])["lo"] is None

    def test_two_level_merge_equals_flat_merge_on_integer_float64(self):
        rng = random.Random(12)
        workers = [
            _partial([rng.randrange(10**9) for _ in range(rng.randrange(0, 40))])
            for _ in range(12)
        ]
        flat = merge_scalar(AGGS, workers)
        shards = [merge_scalar(AGGS, workers[lo : lo + 4]) for lo in (0, 4, 8)]
        assert merge_scalar(AGGS, shards) == flat
        assert merge_scalar(AGGS, reversed(shards)) == flat  # any shard order


def _table(aggs, groups):
    """A table folded from ``key -> [value per aggregate]``, in dict order."""
    table = GroupTable(aggs)
    table.fold(list(groups), list(zip(*groups.values())))
    return table


def _merged(aggs, tables):
    merged = GroupTable(aggs)
    for table in tables:
        merged.merge(table)
    return merged


class TestMergeGroups:
    """Grouped partials are :class:`GroupTable` objects; they merge by slot."""

    GROUP_AGGS = AGGS[:2]

    def test_overlapping_keys_fold_and_disjoint_keys_union(self):
        first = _table(self.GROUP_AGGS, {(1, "a"): [10.0, 2], (2, "b"): [5.0, 1]})
        second = _table(self.GROUP_AGGS, {(2, "b"): [7.0, 3], (3, "c"): [1.0, 1]})
        # first-seen order: what a stable ORDER BY breaks ties on
        assert _merged(self.GROUP_AGGS, [first, second]).rows() == [
            (1, "a", 10.0, 2),
            (2, "b", 12.0, 4),
            (3, "c", 1.0, 1),
        ]

    def test_empty_partials_and_no_partials(self):
        one = _table(self.GROUP_AGGS, {(1,): [4.0, 1]})
        empty = GroupTable(self.GROUP_AGGS)
        assert _merged(self.GROUP_AGGS, []).rows() == []
        assert _merged(self.GROUP_AGGS, [empty, one, empty]).rows() == one.rows()
        # no groups fold as a no-op: an empty shard's rows
        assert one.fold([], []) == 1
        assert one.rows() == [(1, 4.0, 1)]

    def test_inputs_are_not_mutated(self):
        first = _table(self.GROUP_AGGS, {(1,): [4.0, 1]})
        second = _table(self.GROUP_AGGS, {(1,): [6.0, 2]})
        _merged(self.GROUP_AGGS, [first, second])
        assert first.rows() == [(1, 4.0, 1)]
        assert second.rows() == [(1, 6.0, 2)]

    def test_two_level_merge_equals_flat_merge_on_integer_float64(self):
        rng = random.Random(5)
        workers = [
            _table(
                self.GROUP_AGGS,
                {
                    (key,): [float(rng.randrange(10**9)), rng.randrange(1, 9)]
                    for key in rng.sample(range(8), rng.randrange(0, 8))
                },
            )
            for _ in range(12)
        ]
        flat = _merged(self.GROUP_AGGS, workers).rows()
        shards = [_merged(self.GROUP_AGGS, workers[lo : lo + 4]) for lo in (0, 4, 8)]
        assert _merged(self.GROUP_AGGS, shards).rows() == flat


# -- worker -> collector -> fleet, against a plain dict fold ------------------

KEYS = ["k0", "k1"]
GROUP_PLAN = scan("t", ["k0", "k1", "v"]).groupby(KEYS, AGGS)
DTYPES = [np.int64 if agg.kind == "count" else np.float64 for agg in AGGS]
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf]),
    st.floats(width=64),
)


@st.composite
def worker_blocks(draw):
    """One worker's blocks as the generated sink hands them over: distinct
    keys per block from a small space (so blocks, workers and shards
    share groups), int64 counts and float64 sums / mins / maxes."""
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        keys = draw(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=6, unique=True
            )
        )
        values = st.lists(VALUES, min_size=len(keys), max_size=len(keys))
        counts = st.lists(st.integers(1, 50), min_size=len(keys), max_size=len(keys))
        blocks.append((keys, [draw(values), draw(counts), draw(values), draw(values)]))
    return blocks


def _dict_fold(into, groups):
    """Python's ``+`` / ``min`` / ``max`` from each aggregate's identity."""
    for key, values in groups:
        row = into.setdefault(key, [agg_identity(agg.kind) for agg in AGGS])
        for i, (agg, value) in enumerate(zip(AGGS, values)):
            row[i] = merge_agg(agg.kind, row[i], value)
    return into


def _bits(rows):
    """Rows with each value's type and exact bits (``-0.0``, NaN)."""
    return [
        tuple((type(v), v.hex() if isinstance(v, float) else v) for v in row)
        for row in rows
    ]


def _rows(groups):
    return [key + tuple(values) for key, values in groups.items()]


@settings(max_examples=150, deadline=None)
@given(
    workers=st.lists(worker_blocks(), min_size=1, max_size=6),
    cuts=st.lists(st.integers(0, 6), min_size=1, max_size=2),
)
def test_worker_collector_fleet_match_a_dict_fold(workers, cuts):
    """Worker tables fold block by block, the collector merges them by
    slot and the fleet folds shard rows: each level equals a plain dict
    fold of the same partials, in the same order, to the bit."""
    tables, worker_dicts = [], []
    for blocks in workers:
        table, expected = GroupTable(AGGS), {}
        for keys, partials in blocks:
            key_columns = np.array(keys, dtype=np.int64).reshape(-1, len(KEYS)).T
            arrays = [np.array(p, dtype=d) for p, d in zip(partials, DTYPES)]
            table.update(list(key_columns), arrays)
            _dict_fold(expected, zip(keys, zip(*partials)))
        assert _bits(table.rows()) == _bits(_rows(expected))
        tables.append(table)
        worker_dicts.append(expected)

    bounds = [0, *sorted(min(cut, len(workers)) for cut in cuts), len(workers)]
    results, shard_dicts = {}, []
    for shard, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        spec = CollectSpec(KEYS, AGGS)
        result = collect_result(
            spec, [], tables[lo:hi], [], ExecutionProfile(), lambda name: None
        )
        expected = {}
        for groups in worker_dicts[lo:hi]:
            _dict_fold(expected, groups.items())
        assert _bits(result.rows) == _bits(_rows(expected))
        results[shard] = result
        shard_dicts.append(expected)

    fleet = EngineFleet._merge(SimpleNamespace(plan=GROUP_PLAN), list(results), results)
    expected = {}
    for groups in shard_dicts:
        _dict_fold(expected, groups.items())
    assert _bits(fleet.rows) == _bits(_rows(expected))
    assert fleet.columns == GROUP_PLAN.output_columns()


# -- the fleet's gather -------------------------------------------------------


def _fleet(tables, fact):
    fleet = EngineFleet(num_servers=2, replication=1)
    fleet.load_tables(tables, fact=fact)
    return fleet


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_an_infinite_scalar_aggregate_is_not_none():
    """A sum or a max that overflows to inf is inf, on one engine and on
    a two-shard fleet, as the oracle computes it."""
    table = Table("t", [Column.from_values("a", DataType.INT64, np.arange(1000))])
    big, low = col("a") * lit(1e306), col("a") * lit(-1e306)
    plan = scan("t", ["a"]).reduce(
        [agg_sum(big, "s"), agg_max(big, "hi"), agg_min(low, "lo")]
    )
    want = ReferenceExecutor({"t": table}).execute(plan)
    assert want == [(math.inf, math.inf, -math.inf)]
    engine = Proteus()
    engine.register(table)
    assert engine.query(plan, CPU4).rows == want
    fleet = _fleet([table], "t")
    query = fleet.submit(plan, CPU4)
    fleet.run()
    assert query.status == "done"
    assert query.result.rows == want


def test_an_ordered_row_query_with_no_matching_rows_is_empty():
    plan = (
        scan("lineorder", ["lo_orderkey", "lo_quantity"])
        .filter(col("lo_quantity") > lit(1000))
        .order_by("lo_orderkey")
    )
    fleet = _fleet(ssb_tables(0.001, 3), "lineorder")
    query = fleet.submit(plan, CPU4)
    fleet.run()
    assert query.status == "done", query.error
    assert query.result.rows == []
    assert query.result.columns == ["lo_orderkey", "lo_quantity"]


def test_a_merge_error_fails_the_query_typed(monkeypatch):
    def broken(query, shards, results):
        raise RuntimeError("merge failed")

    monkeypatch.setattr(EngineFleet, "_merge", staticmethod(broken))
    fleet = _fleet(ssb_tables(0.001, 3), "lineorder")
    query = fleet.submit(scan("lineorder", ["lo_revenue"]).reduce(AGGS[1:2]), CPU4)
    report = fleet.run()  # returns: the health probes stop with the coordinator
    assert query.status == "failed"
    assert query.error_class is not None
    assert isinstance(query.error, RuntimeError)
    assert report.queries == [query]


def test_a_group_by_with_an_empty_shard_matches_the_reference():
    """Only the first ``lineorder`` shard holds qualifying rows: the
    other shard's result has no groups, and the fleet folds it as none."""
    fleet = {"num_servers": 2, "replication": 1}
    out = run_scenario(Scenario(batch(["first_shard_groups"], CPU4), fleet=fleet))
    (query,) = out.items
    assert query.status == "done" and query.result.rows
    shards = {fs.shard: fs.server.catalog for fs in out.system.servers}
    keys = shards[1].table("lineorder").column("lo_orderkey").values
    assert keys.min() > 100  # the plan's filter keeps none of them
