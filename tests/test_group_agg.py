"""Property tests for the generated pipelines' group-by runtime: the block
group key (:func:`group_rows`) and the worker merge
(:meth:`PipelineState.group_update`)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algebra.expressions import col
from repro.algebra.logical import AggSpec
from repro.hardware.topology import DeviceType
from repro.jit.pipeline import (
    PipelineState,
    QueryState,
    agg_identity,
    group_rows,
    merge_agg,
)

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def key_matrices(draw):
    """1-3 int64 key columns, values drawn from a small pool (so groups
    repeat) that mixes negatives, zero and the int64 extremes."""
    width = draw(st.integers(1, 3))
    pool = draw(st.lists(INT64, min_size=1, max_size=6, unique=True))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=width, max_size=width),
            min_size=1,
            max_size=200,
        )
    )
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def _assert_same_groups(keys_2d):
    uniq, inverse = group_rows(keys_2d)
    want_uniq, want_inverse = np.unique(keys_2d, axis=0, return_inverse=True)
    assert uniq.dtype == want_uniq.dtype
    assert np.array_equal(uniq, want_uniq)
    assert inverse.ndim == 1
    assert np.array_equal(inverse, want_inverse.ravel())


@settings(max_examples=150, deadline=None)
@given(keys_2d=key_matrices())
def test_group_rows_is_np_unique_rows(keys_2d):
    _assert_same_groups(keys_2d)


def test_group_rows_edge_shapes():
    extremes = [-(2**63), -1, 0, 1, 2**63 - 1]
    for width in (1, 2, 3):
        _assert_same_groups(np.full((1, width), -7, dtype=np.int64))
        _assert_same_groups(np.full((50, width), 2**63 - 1, dtype=np.int64))
        grid = np.array(
            [[extremes[(i + j) % 5] for j in range(width)] for i in range(25)],
            dtype=np.int64,
        )
        _assert_same_groups(grid)


def _reference_group_update(groups, aggs, keys_2d, agg_arrays):
    """The per-element merge ``group_update`` replaced: one ``int()`` /
    ``float()`` per partial, kept as the oracle."""
    kinds = {agg.alias: agg.kind for agg in aggs}
    for i, key_row in enumerate(keys_2d):
        key = tuple(int(k) for k in key_row)
        row = groups.get(key)
        if row is None:
            row = {alias: agg_identity(kind) for alias, kind in kinds.items()}
            groups[key] = row
        for alias, kind in kinds.items():
            value = agg_arrays[alias][i]
            value = int(value) if kind == "count" else float(value)
            row[alias] = merge_agg(kind, row[alias], value)


AGGS = [
    AggSpec("sum", col("v"), "s"),
    AggSpec("count", col("v"), "c"),
    AggSpec("min", col("v"), "lo"),
    AggSpec("max", col("v"), "hi"),
]
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 0.1, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def blocks(draw, width):
    """Per-block partials as the generated sink hands them over: distinct
    key rows in ``group_rows`` order, int64 counts, float64 otherwise.
    Keys come from a small range, so later blocks revisit groups."""
    keys = draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * width),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    n = len(keys)
    floats = st.lists(FLOATS, min_size=n, max_size=n)
    counts = st.lists(st.integers(1, 2**40), min_size=n, max_size=n)
    partials = {
        "s": np.array(draw(floats), dtype=np.float64),
        "c": np.array(draw(counts), dtype=np.int64),
        "lo": np.array(draw(floats), dtype=np.float64),
        "hi": np.array(draw(floats), dtype=np.float64),
    }
    return np.array(sorted(keys), dtype=np.int64), partials


def _bits(groups):
    """Groups with every value's type and exact bits (``-0.0`` != ``0.0``)."""
    return {
        key: {
            alias: (type(v), v.hex() if isinstance(v, float) else v)
            for alias, v in row.items()
        }
        for key, row in groups.items()
    }


@settings(max_examples=120, deadline=None)
@given(
    sequence=st.integers(1, 3).flatmap(
        lambda width: st.lists(blocks(width), min_size=1, max_size=5)
    )
)
def test_group_update_matches_per_element_merge(sequence):
    """New and existing groups, block after block: the list fold leaves
    the same groups, in the same order, with bit-identical values."""
    state = PipelineState(QueryState(), "cpu", DeviceType.CPU, 256, group_aggs=AGGS)
    expected: dict = {}
    for keys_2d, partials in sequence:
        state.group_update(keys_2d, partials)
        _reference_group_update(expected, AGGS, keys_2d, partials)
    assert list(state.groups) == list(expected)
    assert _bits(state.groups) == _bits(expected)


def test_group_update_keeps_negative_zero_semantics():
    state = PipelineState(QueryState(), "cpu", DeviceType.CPU, 256, group_aggs=AGGS)
    keys = np.array([[1], [2]], dtype=np.int64)
    partials = {
        "s": np.array([-0.0, 2.5]),
        "c": np.array([3, 1], dtype=np.int64),
        "lo": np.array([-0.0, 0.0]),
        "hi": np.array([-0.0, 0.0]),
    }
    state.group_update(keys, partials)
    state.group_update(keys[:1], {alias: v[:1] for alias, v in partials.items()})
    row = state.groups[(1,)]
    # 0.0 + -0.0 is 0.0, min(inf, -0.0) is -0.0, max(-0.0, -0.0) keeps -0.0
    assert math.copysign(1.0, row["s"]) == 1.0
    assert math.copysign(1.0, row["lo"]) == -1.0
    assert math.copysign(1.0, row["hi"]) == -1.0
    assert row["c"] == 6 and type(row["c"]) is int
    assert state.groups[(2,)] == {"s": 2.5, "c": 1, "lo": 0.0, "hi": 0.0}
