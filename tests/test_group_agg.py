"""Property tests for the generated pipelines' group-by runtime: the block
group key (:func:`group_rows`), the per-group partials (``np.bincount``)
and the worker merge (:class:`GroupTable`, :meth:`PipelineState.group_update`)."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.algebra.expressions import col
from repro.algebra.logical import AggSpec
from repro.hardware.topology import DeviceType
from repro.jit import pipeline
from repro.jit.pipeline import (
    PipelineState,
    QueryState,
    agg_identity,
    group_rows,
    merge_agg,
)

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _path(columns) -> str:
    """Which of group_rows' four paths a block takes (its stated rule)."""
    if columns[0].size <= pipeline._PYTHON_ROWS:
        return "python"
    codes = math.prod(int(c.max()) - int(c.min()) + 1 for c in columns)
    if codes > _I64_MAX:
        return "overflow"
    return "dense" if codes <= 4 * columns[0].size else "unique"


@st.composite
def key_columns(draw):
    """1-4 key columns of int32 or int64, values drawn from a small pool
    per column (so groups repeat).  The pool is either narrow (a dense
    code space), wide, or reaches the dtype's extremes, so a block can
    take each of the four paths, including spans near 2**63."""
    width = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 200))
    columns = []
    for _ in range(width):
        dtype = draw(st.sampled_from([np.int32, np.int64]))
        info = np.iinfo(dtype)
        values = st.integers(int(info.min), int(info.max))
        shape = draw(st.sampled_from(["narrow", "wide", "extreme"]))
        if shape == "narrow":
            low = draw(st.integers(int(info.min), int(info.max) - 8))
            values = st.integers(low, low + 8)
        elif shape == "extreme":
            values = st.sampled_from([int(info.min), -1, 0, int(info.max)])
        pool = draw(st.lists(values, min_size=1, max_size=6, unique=True))
        picks = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
        columns.append(np.array(picks, dtype=dtype))
    return columns


def _assert_same_groups(columns):
    uniq, inverse = group_rows(*columns)
    matrix = np.stack([c.astype(np.int64) for c in columns], axis=1)
    want_uniq, want_inverse = np.unique(matrix, axis=0, return_inverse=True)
    assert len(uniq) == len(columns)
    assert all(column.dtype == np.int64 for column in uniq)
    assert np.array_equal(np.stack(uniq, axis=1), want_uniq)
    assert inverse.ndim == 1
    assert np.array_equal(inverse, want_inverse.ravel())


@settings(max_examples=300, deadline=None)
@given(columns=key_columns())
def test_group_rows_is_np_unique_rows(columns):
    event(_path(columns))
    _assert_same_groups(columns)


def _spied(monkeypatch):
    """Record which of the sorting paths a group_rows call ran."""
    ran = []
    unique, overflow = np.unique, pipeline._overflow_groups
    monkeypatch.setattr(
        np, "unique", lambda *a, **k: ran.append("unique") or unique(*a, **k)
    )
    monkeypatch.setattr(
        pipeline, "_overflow_groups", lambda c: ran.append("overflow") or overflow(c)
    )
    return ran


def _i32(values):
    return np.array(values, dtype=np.int32)


def _i64(values):
    return np.array(values, dtype=np.int64)


_EXTREMES = [_I64_MIN, -1, 0, 1, _I64_MAX]
_PATH_CASES = {
    # 7 x 25 codes for 500 rows: presence flags and a rank, no sort
    "dense": [_i32(np.arange(500) % 7 + 1992), _i64(np.arange(500)[::-1] % 25)],
    # 4 x 1 980 001 codes for 100 rows: one 1-D unique of the codes
    "unique": [_i64(np.arange(100) % 4), _i32(np.arange(100) * 20_000 - 10**6)],
    # a span of 2**63 - 1 codes, the widest that still fits int64
    "unique_near_2_63": [_i64([-(2**62), 0, 2**62 - 2, 0, -(2**62)] * 16)],
    # spans of 2**64 and 2**32: no int64 code, one lexsort
    "overflow": [
        _i64([_EXTREMES[3 * i % 5] for i in range(80)]),
        _i32([-(2**31), 2**31 - 1] * 40),
    ],
    # a span of 2**63 codes, one more than int64 holds
    "overflow_2_63": [_i64([-(2**62), 2**62 - 1, -1] * 24)],
    # a few rows, whatever their span: distinct key tuples sorted in Python
    "python": [_i64([_I64_MAX, 0, _I64_MIN, 0]), _i32([7, 7, -(2**31), 7])],
}


@pytest.mark.parametrize("case", sorted(_PATH_CASES))
def test_group_rows_takes_each_path(case, monkeypatch):
    columns = _PATH_CASES[case]
    ran = _spied(monkeypatch)
    group_rows(*columns)
    monkeypatch.undo()
    path = case.split("_")[0]
    assert _path(columns) == path
    assert ran == ([path] if path in ("unique", "overflow") else [])
    _assert_same_groups(columns)


def test_group_rows_edge_shapes():
    for width in (1, 2, 3, 4):
        _assert_same_groups([np.full(1, -7, dtype=np.int64)] * width)
        _assert_same_groups([np.full(100, _I64_MAX, dtype=np.int64)] * width)
        _assert_same_groups([np.full(100, 2**31 - 1, dtype=np.int32)] * width)
        grid = [
            np.array([_EXTREMES[(i + j) % 5] for i in range(25)], dtype=np.int64)
            for j in range(width)
        ]
        _assert_same_groups(grid)
    empty, inverse = group_rows(np.zeros(0, np.int32), np.zeros(0, np.int64))
    assert [c.size for c in empty] == [0, 0] and inverse.size == 0


FRACTIONS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, -0.1, 1 / 3, 1e-300, 2.0**53 + 1, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@settings(max_examples=150, deadline=None)
@given(
    groups=st.integers(1, 8),
    values=st.lists(FRACTIONS, min_size=1, max_size=120),
    data=st.data(),
)
def test_bincount_partials_are_add_at_bit_for_bit(groups, values, data):
    """A sum's per-group partial is a bincount over the inverse: it adds
    in row order from 0.0, as ``np.add.at`` into zeros did, so every
    partial has the same bits (``-0.0`` and rounding included)."""
    n = len(values)
    draws = data.draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n))
    inverse = np.array(draws, dtype=np.intp)
    inverse[: min(groups, inverse.size)] = np.arange(min(groups, inverse.size))
    weights = np.array(values, dtype=np.float64)
    at = np.zeros(inverse.max() + 1)
    with np.errstate(over="ignore"):  # huge draws may sum to inf
        np.add.at(at, inverse, weights)
    got = [v.hex() for v in np.bincount(inverse, weights).tolist()]
    assert got == [v.hex() for v in at.tolist()]
    # integer weights, as the generated sinks pass them
    dtype = np.int32 if groups % 2 else np.int64
    ints = np.array([int(v) % 2**30 - 2**29 for v in values], dtype=dtype)
    at = np.zeros(inverse.max() + 1)
    np.add.at(at, inverse, ints.astype(np.float64))
    assert np.bincount(inverse, ints).tolist() == at.tolist()


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
            max_size=40,
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
        lambda width: st.lists(blocks(width), min_size=1, max_size=6)
    )
)
def test_group_update_matches_per_element_merge(sequence):
    """New and existing groups, block after block, past the slot arrays'
    first growth: the slot merge leaves the same groups, in the same
    first-seen order, with bit-identical values and types, and reports
    how many groups it holds."""
    state = PipelineState(QueryState(), "cpu", DeviceType.CPU, 256, group_aggs=AGGS)
    expected: dict = {}
    for keys_2d, partials in sequence:
        held = state.group_update(*_slot_args(keys_2d, partials))
        _reference_group_update(expected, AGGS, keys_2d, partials)
        assert held == len(expected)
    assert list(state.groups) == list(expected)
    assert _bits(state.groups) == _bits(expected)


def _slot_args(keys_2d, partials):
    """A block as the generated sink hands it over: one array per key
    column and one partial per aggregate, in ``AGGS`` order."""
    return list(keys_2d.T), [partials[agg.alias] for agg in AGGS]


def test_group_update_counts_groups_past_the_spill_threshold():
    state = PipelineState(QueryState(), "cpu", DeviceType.CPU, 256, group_aggs=AGGS)
    keys = np.arange(5000, dtype=np.int64).reshape(-1, 1)
    ones = np.ones(5000)
    partials = {"s": ones, "c": ones.astype(np.int64), "lo": ones, "hi": ones}
    first = {alias: v[:4096] for alias, v in partials.items()}
    assert state.group_update(*_slot_args(keys[:4096], first)) == 4096
    second = {alias: v[4000:] for alias, v in partials.items()}
    assert state.group_update(*_slot_args(keys[4000:], second)) == 5000
    assert state.groups[(4050,)] == {"s": 2.0, "c": 2, "lo": 1.0, "hi": 1.0}
    assert list(state.groups)[4095:4097] == [(4095,), (4096,)]


def test_group_update_keeps_negative_zero_semantics():
    state = PipelineState(QueryState(), "cpu", DeviceType.CPU, 256, group_aggs=AGGS)
    keys = np.array([[1], [2]], dtype=np.int64)
    partials = {
        "s": np.array([-0.0, 2.5]),
        "c": np.array([3, 1], dtype=np.int64),
        "lo": np.array([-0.0, 0.0]),
        "hi": np.array([-0.0, 0.0]),
    }
    state.group_update(*_slot_args(keys, partials))
    state.group_update(*_slot_args(keys[:1], {a: v[:1] for a, v in partials.items()}))
    row = state.groups[(1,)]
    # 0.0 + -0.0 is 0.0, min(inf, -0.0) is -0.0, max(-0.0, -0.0) keeps -0.0
    assert math.copysign(1.0, row["s"]) == 1.0
    assert math.copysign(1.0, row["lo"]) == -1.0
    assert math.copysign(1.0, row["hi"]) == -1.0
    assert row["c"] == 6 and type(row["c"]) is int
    assert state.groups[(2,)] == {"s": 2.5, "c": 1, "lo": 0.0, "hi": 0.0}
