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


def test_hash_mixes_sequential_keys():
    hashes = hash_int64(np.arange(1024, dtype=np.int64))
    low_bits = hashes & np.uint64(255)
    # sequential keys must spread over the low bits (multiplicative mix)
    assert len(np.unique(low_bits)) > 128


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
