"""Unit and property tests for the open-addressing hash table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jit.hashtable import DuplicateKeyError, HashTable, hash_int64


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
    keys = np.arange(512, dtype=np.int64)
    table = HashTable(256)
    table.insert(keys)
    # at capacity 2**10 a key's home slot is the top 10 bits of its hash
    assert table.capacity == 2**10
    homes = (hash_int64(keys) >> np.uint64(64 - 10)).astype(np.int64)
    # sequential keys must spread over those bits (Fibonacci hashing):
    # no two share a home, so each sits at its own
    assert len(np.unique(homes)) == keys.size
    assert np.array_equal(table.keys[homes], keys)


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
