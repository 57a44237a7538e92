"""The one partial-aggregate merge, on its own.

:func:`~repro.engine.collect.merge_scalar` and
:func:`~repro.engine.collect.merge_groups` are used at two levels —
worker partials into a query result (the collector) and shard results
into a fleet result (``EngineFleet._merge``).  These tests pin the merge
rules directly and the contract the two-level use leans on: on
integer-valued float64, merging per worker and then per shard equals
merging everything at once, bit for bit.
"""

import math
import random

from repro import agg_count, agg_max, agg_min, agg_sum, col
from repro.engine.collect import merge_groups, merge_scalar

AGGS = [
    agg_sum(col("v"), "total"),
    agg_count("n"),
    agg_min(col("v"), "lo"),
    agg_max(col("v"), "hi"),
]

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


class TestMergeGroups:
    GROUP_AGGS = AGGS[:2]

    def test_overlapping_keys_fold_and_disjoint_keys_union(self):
        merged = merge_groups(
            self.GROUP_AGGS,
            [
                {(1, "a"): {"total": 10.0, "n": 2}, (2, "b"): {"total": 5.0, "n": 1}},
                {(2, "b"): {"total": 7.0, "n": 3}, (3, "c"): {"total": 1.0, "n": 1}},
            ],
        )
        assert merged == {
            (1, "a"): {"total": 10.0, "n": 2},
            (2, "b"): {"total": 12.0, "n": 4},
            (3, "c"): {"total": 1.0, "n": 1},
        }
        # first-seen order: what a stable ORDER BY breaks ties on
        assert list(merged) == [(1, "a"), (2, "b"), (3, "c")]

    def test_empty_partials_and_no_partials(self):
        one = {(1,): {"total": 4.0, "n": 1}}
        assert merge_groups(self.GROUP_AGGS, []) == {}
        assert merge_groups(self.GROUP_AGGS, [{}, one, {}]) == one

    def test_inputs_are_not_mutated(self):
        first = {(1,): {"total": 4.0, "n": 1}}
        second = {(1,): {"total": 6.0, "n": 2}}
        merge_groups(self.GROUP_AGGS, [first, second])
        assert first == {(1,): {"total": 4.0, "n": 1}}
        assert second == {(1,): {"total": 6.0, "n": 2}}

    def test_two_level_merge_equals_flat_merge_on_integer_float64(self):
        rng = random.Random(5)
        workers = [
            {
                (key,): {"total": float(rng.randrange(10**9)), "n": rng.randrange(1, 9)}
                for key in rng.sample(range(8), rng.randrange(0, 8))
            }
            for _ in range(12)
        ]
        flat = merge_groups(self.GROUP_AGGS, workers)
        shards = [
            merge_groups(self.GROUP_AGGS, workers[lo : lo + 4]) for lo in (0, 4, 8)
        ]
        assert merge_groups(self.GROUP_AGGS, shards) == flat
