"""Unit and property tests for the join table and its two layouts."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro import ExecutionConfig
from repro.jit.hashtable import DuplicateKeyError, HashTable, hash_int64
from repro.jit.pipeline import QueryState
from repro.ssb import SSB_QUERY_IDS
from scenario import Scenario, Tables, batch, run_scenario

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _layout(table: HashTable) -> str:
    """``keys`` / ``rows`` are the hash layout's slot arrays."""
    return "direct" if table.keys is None else "hash"


class TestBuildProbe:
    def test_basic_roundtrip(self):
        ht = HashTable(4, ["v"])
        keys = np.array([10, 20, 30], dtype=np.int64)
        ht.insert(keys, {"v": np.array([1, 2, 3])})
        idx = ht.probe(np.array([20, 99, 10], dtype=np.int64))
        assert list(idx >= 0) == [True, False, True]
        assert list(ht.payload["v"][idx[idx >= 0]]) == [2, 1]

    def test_probe_empty_table(self):
        ht = HashTable(16)
        assert list(ht.probe(np.array([1, 2], dtype=np.int64))) == [-1, -1]

    def test_probe_empty_keys(self):
        ht = HashTable(16)
        ht.insert(np.array([1], dtype=np.int64))
        assert ht.probe(np.array([], dtype=np.int64)).size == 0

    def test_incremental_inserts_grow(self):
        ht = HashTable(4, ["v"])
        for start in range(0, 1000, 100):
            keys = np.arange(start, start + 100, dtype=np.int64)
            ht.insert(keys, {"v": keys * 3})
            # the direct window grows with the capacity
            assert _layout(ht) == "direct"
        assert len(ht) == 1000
        idx = ht.probe(np.arange(1000, dtype=np.int64))
        assert np.all(idx >= 0)
        assert np.array_equal(ht.payload["v"][idx], np.arange(1000) * 3)

    def test_duplicate_across_batches_raises(self):
        ht = HashTable(16)
        ht.insert(np.array([5], dtype=np.int64))
        with pytest.raises(DuplicateKeyError):
            ht.insert(np.array([5], dtype=np.int64))

    def test_duplicate_within_batch_raises(self):
        ht = HashTable(16)
        with pytest.raises(DuplicateKeyError):
            ht.insert(np.array([7, 7], dtype=np.int64))

    def test_missing_payload_column_raises(self):
        ht = HashTable(16, ["v"])
        with pytest.raises(KeyError, match="missing payload"):
            ht.insert(np.array([1], dtype=np.int64), {})

    def test_negative_keys_supported(self):
        ht = HashTable(8)
        keys = np.array([-5, -1, 0, 3], dtype=np.int64)
        ht.insert(keys)
        assert np.all(ht.probe(keys) >= 0)
        assert list(ht.probe(np.array([-2], dtype=np.int64))) == [-1]

    def test_footprints(self):
        ht = HashTable(100, ["v"])
        keys = np.arange(50, dtype=np.int64)
        ht.insert(keys, {"v": keys})
        assert ht.nbytes >= ht.content_nbytes
        assert ht.content_nbytes == 50 * 2 * 16 + 50 * 8

    def test_misaligned_payload_raises_and_leaves_table_unchanged(self):
        ht = HashTable(16, ["v"])
        with pytest.raises(ValueError, match="align"):
            ht.insert(np.array([1, 2], dtype=np.int64), {"v": np.array([10, 20, 30])})
        with pytest.raises(ValueError, match="align"):
            ht.insert(np.array([3, 4], dtype=np.int64), {"v": np.array([40])})
        assert len(ht) == 0 and ht.payload["v"].size == 0
        assert list(ht.probe(np.array([1, 2, 3, 4], dtype=np.int64))) == [-1] * 4
        # the rejected rows cannot shift later ones onto the wrong payload
        ht.insert(np.array([5], dtype=np.int64), {"v": np.array([50])})
        assert ht.payload["v"][ht.probe(np.array([5], dtype=np.int64))].tolist() == [50]

    def test_payload_is_joined_once_when_read(self, monkeypatch):
        joins = []
        concatenate = np.concatenate

        def counting(parts, *args, **kwargs):
            joins.append(len(parts))
            return concatenate(parts, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        ht = HashTable(4, ["v", "w"])
        for start in range(0, 60, 10):
            keys = np.arange(start, start + 10, dtype=np.int64)
            ht.insert(keys, {"v": keys * 2, "w": keys * 3.0})
        assert joins == []
        payload = ht.payload
        assert joins == [6, 6]
        assert ht.payload is payload and joins == [6, 6]
        idx = ht.probe(np.arange(60, dtype=np.int64))
        assert np.array_equal(payload["v"][idx], np.arange(60) * 2)
        assert payload["w"].dtype == np.float64
        ht.insert(np.array([99], dtype=np.int64), {"v": [7], "w": [8.0]})
        assert ht.payload["v"][ht.probe(np.array([99], dtype=np.int64))].tolist() == [7]
        assert joins == [6, 6, 2, 2]


def test_hash_mixes_sequential_keys():
    # at capacity 2**10 a key's home slot is the top 10 bits of its hash;
    # sequential keys must spread over those bits (Fibonacci hashing)
    keys = np.arange(512, dtype=np.int64)
    homes = (hash_int64(keys) >> np.uint64(64 - 10)).astype(np.int64)
    assert len(np.unique(homes)) == keys.size
    # Sequential keys take the direct layout, so slot placement is checked
    # on keys whose span exceeds the 2**11-key window: they hash, no two
    # share a home, and each sits at its own.
    sparse = keys * 10007
    table = HashTable(256)
    table.insert(sparse)
    assert table.capacity == 2**10 and _layout(table) == "hash"
    homes = (hash_int64(sparse) >> np.uint64(64 - 10)).astype(np.int64)
    assert len(np.unique(homes)) == sparse.size
    assert np.array_equal(table.keys[homes], sparse)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-(2**40), max_value=2**40),
                  min_size=1, max_size=300, unique=True),
    probes=st.lists(st.integers(min_value=-(2**40), max_value=2**40),
                    min_size=0, max_size=300),
)
def test_probe_matches_dict_oracle(keys, probes):
    ht = HashTable(8, ["v"])
    key_array = np.array(keys, dtype=np.int64)
    ht.insert(key_array, {"v": key_array * 7})
    oracle = {k: k * 7 for k in keys}
    idx = ht.probe(np.array(probes, dtype=np.int64))
    for probe, index in zip(probes, idx):
        if probe in oracle:
            assert index >= 0
            assert ht.payload["v"][index] == oracle[probe]
        else:
            assert index == -1


@settings(max_examples=20, deadline=None)
@given(chunks=st.lists(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
             max_size=50, unique=True),
    min_size=1, max_size=6,
))
def test_incremental_batches_equal_single_batch(chunks):
    """Inserting in chunks is equivalent to one bulk insert (after
    de-duplicating across chunks)."""
    seen: set[int] = set()
    deduped = []
    for chunk in chunks:
        fresh = [k for k in chunk if k not in seen]
        seen.update(fresh)
        deduped.append(fresh)
    incremental = HashTable(4)
    for chunk in deduped:
        if chunk:
            incremental.insert(np.array(chunk, dtype=np.int64))
    bulk = HashTable(4)
    flat = [k for chunk in deduped for k in chunk]
    if flat:
        bulk.insert(np.array(flat, dtype=np.int64))
    probes = np.array(sorted(seen) + [10**7], dtype=np.int64)
    hits_a = incremental.probe(probes) >= 0
    hits_b = bulk.probe(probes) >= 0
    assert np.array_equal(hits_a, hits_b)


@settings(max_examples=60, deadline=None)
@given(
    resident=st.lists(st.integers(min_value=0, max_value=500), max_size=40,
                      unique=True),
    batch=st.lists(st.integers(min_value=501, max_value=10**6), min_size=1,
                   max_size=300, unique=True),
    copies=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_any_repeat_inside_a_batch_raises(resident, batch, copies, data):
    """Detection is exact wherever the repeats sit — adjacent or not,
    twice or more, in an empty, filling or growing table — and a batch
    without one still lands."""
    ht = HashTable(4)
    ht.insert(np.array(resident, dtype=np.int64))
    repeated = data.draw(st.sampled_from(batch))
    doubled = list(batch)
    for _ in range(copies):
        doubled.insert(data.draw(st.integers(0, len(doubled))), repeated)
    with pytest.raises(DuplicateKeyError):
        ht.insert(np.array(doubled, dtype=np.int64))
    clean = HashTable(4)
    clean.insert(np.array(resident, dtype=np.int64))
    clean.insert(np.array(batch, dtype=np.int64))
    assert np.all(clean.probe(np.array(resident + batch, dtype=np.int64)) >= 0)


_YEAR, _MONTH, _DAY = np.meshgrid(
    np.arange(1000, 3000), np.arange(1, 13), np.arange(1, 32), indexing="ij"
)
#: ascending yyyymmdd-like keys (every month has 31 days)
_YYYYMMDD = (_YEAR * 10000 + _MONTH * 100 + _DAY).ravel().astype(np.int64)


def _shaped_keys(shape: str, n: int, start: int, stride: int) -> np.ndarray:
    """``n`` distinct keys: sequential, strided dates, or strided negatives."""
    if shape == "sequential":
        return start + np.arange(n, dtype=np.int64)
    if shape == "yyyymmdd":
        first = start % (_YYYYMMDD.size - n * stride)
        return _YYYYMMDD[first : first + n * stride : stride].copy()
    return -1 - abs(start) - stride * np.arange(n, dtype=np.int64)


@st.composite
def shaped_builds(draw):
    """A build of ``batches`` x ``batch`` keys that fills a table of the
    drawn size to load 0.5 (or, with ``expected=1``, grows into it)."""
    batch, batches = draw(
        st.sampled_from([(1, 8), (1, 16), (256, 1), (256, 2), (256, 4), (65536, 1)])
    )
    shape = draw(st.sampled_from(["sequential", "yyyymmdd", "negative"]))
    start = draw(st.integers(min_value=-(2**40), max_value=2**40))
    stride = draw(st.integers(min_value=1, max_value=3 if shape == "yyyymmdd" else 997))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # twice as many keys as the build: the second half are probe misses
    keys = order.permutation(_shaped_keys(shape, 2 * batch * batches, start, stride))
    n = batch * batches
    expected = draw(st.sampled_from([n // 2, 1]))
    return keys[:n].reshape(batches, batch), keys[n:], expected


@settings(max_examples=40, deadline=None)
@given(build=shaped_builds(), data=st.data())
def test_probe_and_insert_match_dict_oracle_at_half_load(build, data):
    """Probe and insert agree with a dict on the key shapes joins see —
    sequential surrogate keys, strided ``yyyymmdd`` dates, negatives — in
    batches of 1, 256 and 65 536 at the table's maximum load, and both
    duplicate paths raise."""
    batches, misses, expected = build
    ht = HashTable(expected, ["v"])
    oracle: dict[int, int] = {}
    for keys in batches:
        values = np.arange(len(oracle), len(oracle) + keys.size, dtype=np.int64) * 7
        ht.insert(keys, {"v": values})
        oracle.update(zip(keys.tolist(), values.tolist()))
    assert len(ht) == len(oracle)
    # a presized table ends exactly half full; a grown one is sparser
    assert ht.num_keys * 2 == ht.capacity or expected == 1
    probes = np.concatenate([batches.ravel(), misses, [0, -1, 2**63 - 1, -(2**63)]])
    idx = ht.probe(probes)
    got = np.where(idx >= 0, ht.payload["v"][idx], -1).tolist()
    assert got == [oracle.get(k, -1) for k in probes.tolist()]

    resident = int(data.draw(st.sampled_from(batches.ravel().tolist())))
    with pytest.raises(DuplicateKeyError):
        ht.insert(np.array([*misses[:3], resident], dtype=np.int64), {"v": [0] * 4})
    fresh = HashTable(expected)
    twin = data.draw(st.integers(0, misses.size - 1))
    repeated = np.insert(misses, data.draw(st.integers(0, misses.size)), misses[twin])
    with pytest.raises(DuplicateKeyError):
        fresh.insert(repeated)


class TestLayouts:
    def test_a_key_outside_the_window_converts_the_table_once(self):
        ht = HashTable(100, ["v"])
        ht.insert(np.arange(100, dtype=np.int64), {"v": np.arange(100)})
        assert _layout(ht) == "direct"
        ht.insert(np.array([7, 10**9], dtype=np.int64) + 100, {"v": [100, 101]})
        assert _layout(ht) == "hash"
        ht.insert(np.array([-1], dtype=np.int64), {"v": [102]})
        assert _layout(ht) == "hash"
        probes = np.array([*range(100), 107, 10**9 + 100, -1, 106, 2**40])
        assert ht.probe(probes).tolist() == [*range(103), -1, -1]

    def test_a_window_filled_edge_to_edge_keeps_its_paddings(self):
        ht = HashTable(8)  # capacity 32: a window of 64 keys
        ht.insert(np.array([0, 63, 17], dtype=np.int64))
        assert ht.capacity == 32 and _layout(ht) == "direct"
        probes = np.array([-1, 0, 17, 63, 64, _I64_MIN, _I64_MAX])
        assert ht.probe(probes).tolist() == [-1, 0, 2, 1, -1, -1, -1]

    def test_keys_at_the_int64_edges(self):
        high = HashTable(4)
        high.insert(np.array([_I64_MAX, _I64_MAX - 2], dtype=np.int64))
        assert _layout(high) == "direct"
        probes = np.array([_I64_MAX, _I64_MAX - 1, _I64_MAX - 2, _I64_MIN, -1, 0])
        assert high.probe(probes).tolist() == [0, -1, 1, -1, -1, -1]
        lowest = HashTable(4)
        lowest.insert(np.array([_I64_MIN + 2, _I64_MIN + 1], dtype=np.int64))
        assert _layout(lowest) == "direct"
        near = _I64_MIN + np.arange(4)
        assert lowest.probe(near).tolist() == [-1, 1, 0, -1]
        assert lowest.probe(probes).tolist() == [-1] * 6
        # no window holds the lowest key with a base one below it
        low = HashTable(4)
        low.insert(np.array([_I64_MIN + 1, _I64_MIN], dtype=np.int64))
        assert _layout(low) == "hash"
        assert low.probe(probes[::-1]).tolist() == [-1, -1, 1, -1, -1, -1]

    @pytest.mark.parametrize(
        "keys, layout", [([3, 1, 4, 1, 5], "direct"), ([3, 10**12, 4, 10**12], "hash")]
    )
    def test_a_repeat_inside_a_batch_is_named(self, keys, layout):
        ht = HashTable(8)
        repeat = f"^duplicate build key {keys[1]} within insert batch$"
        with pytest.raises(DuplicateKeyError, match=repeat):
            ht.insert(np.array(keys, dtype=np.int64))
        assert _layout(ht) == layout
        if layout == "direct":  # the direct layout clears the failed batch
            assert ht.probe(np.array(keys, dtype=np.int64)).tolist() == [-1] * len(keys)


    def test_ascending_date_blocks_re_window_once_and_stay_direct(self):
        # the SSB date dimension: 1992-01-01 .. 1998-12-31 as int32 yyyymmdd
        days = np.arange("1992-01-01", "1999-01-01", dtype="datetime64[D]")
        dates = np.array([d.strftime("%Y%m%d") for d in days.tolist()], dtype=np.int32)
        ht = HashTable(2556, ["row"])
        assert ht.capacity == 8192
        windows = []
        for start in range(0, dates.size, 256):
            block = dates[start : start + 256]
            ht.insert(block, {"row": np.arange(start, start + block.size)})
            windows.append(ht._direct)
        assert _layout(ht) == "direct"
        assert len({id(w) for w in windows}) == 2  # anchored, then re-windowed once
        assert ht._direct.dtype == np.int16
        assert ht._direct.nbytes <= 16 * ht.capacity
        probes = np.concatenate([dates, dates + 1, [19911231, 19990101]]).astype(np.int32)
        idx = ht.probe(probes)
        hit = np.isin(probes, dates)
        assert np.array_equal(idx >= 0, hit)
        assert np.array_equal(ht.payload["row"][idx[hit]], np.searchsorted(dates, probes[hit]))

    def test_a_re_window_then_a_grow_keeps_every_row(self):
        ht = HashTable(0, ["v"])
        steps = []
        keys = np.arange(100, dtype=np.int32) * 3
        for batch in np.split(keys, [20, 40, 60, 80]):
            window, capacity = ht._direct, ht.capacity
            ht.insert(batch, {"v": batch * 7})
            steps.append(("grow " if ht.capacity != capacity else "")
                         + ("move" if ht._direct is not window else "stay"))
        assert steps == ["grow move", "stay", "move", "grow move", "stay"]
        assert _layout(ht) == "direct"
        idx = ht.probe(np.arange(-1, 301, dtype=np.int32))
        assert np.array_equal(np.flatnonzero(idx >= 0) - 1, keys)
        assert np.array_equal(ht.payload["v"][idx[idx >= 0]], keys * 7)

    def test_a_grow_past_2_16_widens_the_row_ids(self):
        ht = HashTable(16000, ["v"])
        assert ht.capacity == 32768 and ht._direct.dtype == np.int16
        keys = np.arange(20000, dtype=np.int64) * 2 - 7
        ht.insert(keys[:16000], {"v": keys[:16000]})
        assert ht._direct.dtype == np.int16
        ht.insert(keys[16000:], {"v": keys[16000:]})
        assert ht.capacity == 131072 and _layout(ht) == "direct"
        assert ht._direct.dtype == np.int32
        assert ht._direct.nbytes <= 16 * ht.capacity
        idx = ht.probe(np.concatenate([keys, keys + 1]))
        assert np.array_equal(idx[:20000], np.arange(20000))
        assert np.all(idx[20000:] == -1)


def _next_pow2(n: int) -> int:
    return 1 << max(0, n - 1).bit_length()


@st.composite
def layout_builds(draw):
    """Unique keys in batches, shaped to take either layout, to leave the
    direct window mid-build, or to climb out of it batch by batch, as
    int64 or int32 keys, and as many unique keys that are never built."""
    shapes = ["dense", "negative", "sparse", "leaves", "low_edge", "high_edge",
              "ascending", "ascending"]
    shape = draw(st.sampled_from(shapes))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.choice(3 * n + 1, 2 * n, replace=False)
    narrow = shape in ("dense", "negative", "ascending") and draw(st.booleans())
    start = draw(st.integers(-(2**29), 2**29) if narrow else st.integers(-(2**40), 2**40))
    if shape == "sparse":
        pool = rng.permutation(np.unique(rng.integers(-(2**40), 2**40, 2 * n)))
    elif shape == "negative":
        pool = -1 - offsets
    elif shape == "low_edge":
        pool = _I64_MIN + offsets
    elif shape == "high_edge":
        pool = _I64_MAX - offsets
    elif shape == "ascending":
        # strides past the 2 * capacity window, within or past the budget,
        # from anywhere up to either int64 edge
        stride = draw(st.integers(1, 40))
        if not narrow:
            start = draw(st.sampled_from(
                [start, _I64_MIN, _I64_MAX - stride * (3 * n + 1)]))
        pool = start + offsets * stride
    else:
        pool = start + offsets
    pool = pool.astype(np.int32 if narrow else np.int64)
    keys, misses = pool[: pool.size // 2], pool[pool.size // 2 :]
    climbs = shape == "ascending"
    cuts = draw(st.lists(st.integers(0, keys.size), max_size=5))
    if climbs:
        # even batches, as a GPU builds from fixed-size blocks
        keys = np.sort(keys)
        cuts = list(range(0, keys.size, max(1, keys.size // draw(st.integers(3, 8)))))
    if shape == "leaves" and keys.size > 1:
        # the last quarter lies far beyond any window the rest anchored
        far = keys.size * 3 // 4
        keys[far:] += 2**41
        cuts.append(far)
    expected = draw(st.sampled_from([0, 1, n // 4] if climbs else [0, 1, n // 2, n]))
    return np.split(keys, sorted(cuts)), misses, expected


def _build(batches, expected: int, hashed: bool) -> HashTable:
    ht = HashTable(expected, ["v"])
    if hashed:
        ht._to_hash()  # the same inserts, hash layout throughout
    row = 0
    for keys in batches:
        ht.insert(keys, {"v": np.arange(row, row + keys.size) * 7})
        row += keys.size
    return ht


@settings(max_examples=200, deadline=None)
@given(build=layout_builds(), data=st.data())
def test_both_layouts_match_a_dict_oracle(build, data):
    """Whatever layout a build takes, it answers every probe as a dict
    does and as the same inserts into a hash-layout table do, reports the
    hash layout's sizing, and names both kinds of duplicate key."""
    batches, misses, expected = build
    table = HashTable(expected, ["v"])
    hashed = HashTable(expected, ["v"])
    hashed._to_hash()
    oracle: dict[int, int] = {}
    capacity = max(16, _next_pow2(2 * expected + 1))
    moved = []
    for keys in batches:
        values = np.arange(len(oracle), len(oracle) + keys.size, dtype=np.int64) * 7
        window = table._direct
        for ht in (table, hashed):
            ht.insert(keys, {"v": values})
        grew = bool(keys.size) and len(oracle) + keys.size > capacity // 2
        if grew:
            capacity = _next_pow2(max(4 * (len(oracle) + keys.size), 2 * capacity))
        if oracle and window is not None and table._direct is not None:
            # the residents moved into a new window: re-windowed or grown
            moved.append("grow" if grew else "rewindow"
                         if table._direct is not window else "stay")
        oracle.update(zip(keys.tolist(), values.tolist()))
        payload = 8 * len(oracle)
        for ht in (table, hashed):
            assert (ht.capacity, len(ht)) == (capacity, len(oracle))
            assert ht.nbytes == 16 * capacity + payload
            assert ht.content_nbytes == 32 * len(oracle) + payload
        # the direct window never outweighs the slot arrays it replaces
        assert table.keys is not None or table._direct.nbytes <= 16 * capacity
    assert _layout(hashed) == "hash"
    event(f"layout={_layout(table)}")
    event(f"moves={'+'.join(m for m in moved if m != 'stay') or 'none'}")
    event(f"keys={batches[0].dtype}")

    built = np.concatenate(batches)
    edges = np.array([_I64_MIN, _I64_MIN + 1, -1, 0, 1, _I64_MAX - 1, _I64_MAX])
    # keys one past the built range, and keys whose distance to any window
    # base wraps around int64
    near = [built - 1, built + 1, built ^ np.int64(_I64_MIN)]
    if table.keys is None:  # both paddings and the keys just past them
        window = table._direct.size - 2
        near.append(table._base + np.array([-1, 0, 1, window, window + 1, window + 2]))
    probes = np.concatenate([built, misses, edges, *near]).astype(np.int64)
    idx = table.probe(probes)
    assert np.array_equal(idx, hashed.probe(probes))
    # a miss (-1) reads the -1 appended after the payload
    got = np.append(table.payload["v"], -1)[idx].tolist()
    assert got == [oracle.get(k, -1) for k in probes.tolist()]
    assert table.probe(np.empty(0, dtype=np.int64)).size == 0

    if not misses.size:
        return
    for hashed_throughout in (False, True):
        if oracle:
            resident = data.draw(st.sampled_from(sorted(oracle)))
            repeat = np.array([*misses[:2], resident], dtype=np.int64)
            ht = _build(batches, expected, hashed_throughout)
            named = f"^duplicate build key {resident}$"
            with pytest.raises(DuplicateKeyError, match=named):
                ht.insert(repeat, {"v": np.zeros(repeat.size)})
        twin = int(misses[data.draw(st.integers(0, misses.size - 1))])
        repeat = np.insert(misses, data.draw(st.integers(0, misses.size)), twin)
        ht = _build(batches, expected, hashed_throughout)
        with pytest.raises(
            DuplicateKeyError, match=f"^duplicate build key {twin} within insert batch$"
        ):
            ht.insert(repeat, {"v": np.zeros(repeat.size)})


#: The layout every SSB build takes at SF 0.01, per query: one group per
#: hash table (``ht0`` first), one letter per domain in sorted order
#: (``cpu``, ``gpu:0``, ``gpu:1``), D = direct, H = hash.  A change to the
#: layout rule shows up here as a diff.  Every table is direct: the date
#: tables' yyyymmdd span fits the byte budget, and the GPU's 256-key
#: date blocks re-window once instead of leaving for the hash layout.
_SSB_LAYOUTS = {
    "hybrid, block 65536": {
        **dict.fromkeys(["Q1.1", "Q1.2", "Q1.3"], "DDD"),
        **dict.fromkeys(["Q2.1", "Q2.2", "Q2.3"], "DDD DDD DDD"),
        **dict.fromkeys(["Q3.1", "Q3.2", "Q3.3", "Q3.4"], "DDD DDD DDD"),
        **dict.fromkeys(["Q4.1", "Q4.2", "Q4.3"], "DDD DDD DDD DDD"),
    },
    "GPU-only, block 256": {
        **dict.fromkeys(["Q1.1", "Q1.2", "Q1.3"], "DD"),
        **dict.fromkeys(["Q2.1", "Q2.2", "Q2.3"], "DD DD DD"),
        **dict.fromkeys(["Q3.1", "Q3.2", "Q3.3", "Q3.4"], "DD DD DD"),
        **dict.fromkeys(["Q4.1", "Q4.2", "Q4.3"], "DD DD DD DD"),
    },
}
_SSB_DRIVES = {
    "hybrid, block 65536": (
        ExecutionConfig.hybrid(24, [0, 1], block_tuples=65536),
        131072,
    ),
    "GPU-only, block 256": (
        ExecutionConfig.gpu_only((0, 1), block_tuples=256, prefetch_depth=2),
        2048,
    ),
}


@pytest.mark.parametrize("drive", sorted(_SSB_DRIVES))
def test_ssb_build_layouts_are_pinned(drive, monkeypatch):
    config, segment_rows = _SSB_DRIVES[drive]
    built = []
    create = QueryState.create_hash_table

    def recording(state, ht_id, domain, *args):
        table = create(state, ht_id, domain, *args)
        built.append((state.query_id, ht_id, domain, table))
        return table

    monkeypatch.setattr(QueryState, "create_hash_table", recording)
    run_scenario(
        Scenario(
            batch(SSB_QUERY_IDS, config),
            {"max_concurrent": 1},
            tables=Tables(scale_factor=0.01, segment_rows=segment_rows),
        )
    )
    layouts: dict = defaultdict(lambda: defaultdict(str))
    for query_id, ht_id, _domain, table in sorted(built, key=lambda b: b[1:3]):
        # a session's query id counts submissions: q<i> runs SSB_QUERY_IDS[i]
        query = SSB_QUERY_IDS[int(query_id[1:])]
        layouts[query][ht_id] += _layout(table)[0].upper()
    pinned = {query: " ".join(tables.values()) for query, tables in layouts.items()}
    assert pinned == _SSB_LAYOUTS[drive]
    # no table's host arrays outweigh the hash layout's 16 B per slot
    for _query_id, ht_id, domain, table in built:
        arrays = (table._direct,) if table.keys is None else (table.keys, table.rows)
        assert sum(a.nbytes for a in arrays) <= 16 * table.capacity, (ht_id, domain)
