"""Open-addressing hash table used by generated join pipelines.

Build and probe are the hot loops of every SSB query; generated pipelines
call into this table the way the paper's generated LLVM IR calls its hash
join runtime.  The implementation is vectorised open addressing with
linear probing over NumPy arrays:

* keys are int64; empty slots hold a sentinel;
* :meth:`HashTable.insert` resolves collisions iteratively over the still
  unplaced keys (a data-parallel formulation of the usual insert loop —
  the same shape a GPU kernel uses);
* :meth:`HashTable.probe` returns, per probe key, the *row index* of the
  matching build tuple or -1, again resolving collisions iteratively.

Join keys in the supported plans are unique on the build side (SSB
dimension tables join on their primary keys); duplicate keys raise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["HashTable", "DuplicateKeyError", "hash_int64"]

_EMPTY = np.int64(-(2**62))  # sentinel; valid keys must differ
#: Knuth/Fibonacci multiplicative constant for 64-bit hashing.
_MIX = np.uint64(0x9E3779B97F4A7C15)


class DuplicateKeyError(ValueError):
    """The build side contained a duplicate join key."""


def hash_int64(keys: np.ndarray) -> np.ndarray:
    """Multiplicative hash of int64 keys to uint64."""
    mixed = keys.astype(np.uint64) * _MIX
    return mixed ^ (mixed >> np.uint64(32))


def _next_pow2(n: int) -> int:
    size = 1
    while size < n:
        size <<= 1
    return size


class HashTable:
    """Linear-probing table mapping unique int64 keys to build-row indices.

    Payload columns are stored row-aligned in ``payload``; a probe hit at
    slot ``s`` yields build row ``rows[s]``, indexing every payload array.
    """

    def __init__(self, expected: int, payload_names: Optional[list[str]] = None):
        capacity = max(16, _next_pow2(int(expected * 2) + 1))
        self._mask = np.uint64(capacity - 1)
        self.capacity = capacity
        self.keys = np.full(capacity, _EMPTY, dtype=np.int64)
        self.rows = np.full(capacity, -1, dtype=np.int64)
        self.num_keys = 0
        self.payload_names = list(payload_names or [])
        self.payload: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=np.int64) for name in self.payload_names
        }
        self._payload_parts: dict[str, list[np.ndarray]] = {
            name: [] for name in self.payload_names
        }

    # -- build -------------------------------------------------------------

    def insert(self, keys: np.ndarray, payload: Optional[dict[str, np.ndarray]] = None) -> None:
        """Insert a batch of unique keys with aligned payload columns."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        payload = payload or {}
        missing = [n for n in self.payload_names if n not in payload]
        if missing:
            raise KeyError(f"insert missing payload columns {missing}")
        if self.num_keys + keys.size > self.capacity // 2:
            self._grow(self.num_keys + keys.size)
        base_row = self.num_keys
        row_ids = np.arange(base_row, base_row + keys.size, dtype=np.int64)
        self._place(keys, row_ids)
        self.num_keys += keys.size
        for name in self.payload_names:
            self._payload_parts[name].append(np.asarray(payload[name]))
        for name in self.payload_names:
            self.payload[name] = np.concatenate(self._payload_parts[name])

    def _place(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        step_mask = np.int64(self._mask)
        slots = (hash_int64(keys) & self._mask).astype(np.int64)
        pending = np.arange(keys.size)
        guard = 0
        while pending.size:
            guard += 1
            if guard > self.capacity + keys.size:
                raise RuntimeError("hash table insert failed to converge")
            slot = slots[pending]
            occupant = self.keys[slot]
            free = occupant == _EMPTY
            clash_same = occupant == keys[pending]
            if clash_same.any():
                dup = keys[pending[clash_same]][0]
                raise DuplicateKeyError(f"duplicate build key {int(dup)}")
            # Claim free slots; NumPy fancy-store keeps the *last* writer on
            # intra-batch slot collisions, so verify and retry the losers.
            take = pending[free]
            claimed = slot[free]
            claimants = row_ids[take]
            self.keys[claimed] = keys[take]
            self.rows[claimed] = claimants
            beaten = self.rows[claimed] != claimants
            if not beaten.any():
                if take.size == pending.size:
                    return
                lost = take[:0]
            else:
                lost = take[beaten]
                # Equal keys walk the same slots in step, so they claim
                # the same free slot in the same round: the loser finds
                # its own key there.
                if (self.keys[claimed[beaten]] == keys[lost]).any():
                    raise DuplicateKeyError("duplicate keys within insert batch")
            retry = np.concatenate([pending[~free], lost])
            slots[retry] = (slots[retry] + 1) & step_mask
            pending = retry
            # Backstop for the claim check above: a batch that makes no
            # progress is placing identical keys.
            if pending.size and guard > 2 * self.capacity:
                raise DuplicateKeyError("duplicate keys within insert batch")

    def _grow(self, needed: int) -> None:
        new_capacity = _next_pow2(max(needed * 4, self.capacity * 2))
        old_keys = self.keys
        old_rows = self.rows
        self.capacity = new_capacity
        self._mask = np.uint64(new_capacity - 1)
        self.keys = np.full(new_capacity, _EMPTY, dtype=np.int64)
        self.rows = np.full(new_capacity, -1, dtype=np.int64)
        live = old_keys != _EMPTY
        if np.any(live):
            self._place(old_keys[live], old_rows[live])

    # -- probe -------------------------------------------------------------

    def probe(self, keys: np.ndarray) -> np.ndarray:
        """Row index of the build match per key, or -1 on a miss."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size == 0 or self.num_keys == 0:
            return np.full(keys.size, -1, dtype=np.int64)
        step_mask = np.int64(self._mask)
        slot = (hash_int64(keys) & self._mask).astype(np.int64)
        occupant = self.keys[slot]
        match = occupant == keys
        result = np.where(match, self.rows[slot], np.int64(-1))
        # keys that met a foreign occupant walk on: ``walking`` indexes
        # them in ``keys``, ``slot`` stays aligned with it
        walking = np.flatnonzero(~(match | (occupant == _EMPTY)))
        slot = slot[walking]
        guard = 1
        while walking.size:
            guard += 1
            if guard > self.capacity:
                raise RuntimeError("hash table probe failed to converge")
            slot = (slot + 1) & step_mask
            occupant = self.keys[slot]
            match = occupant == keys[walking]
            result[walking[match]] = self.rows[slot[match]]
            keep = ~(match | (occupant == _EMPTY))
            walking = walking[keep]
            slot = slot[keep]
        return result

    # -- introspection --------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Physical footprint: slot arrays plus payload columns."""
        size = self.keys.nbytes + self.rows.nbytes
        size += sum(arr.nbytes for arr in self.payload.values())
        return int(size)

    @property
    def content_nbytes(self) -> int:
        """Footprint a well-sized table would have: live entries only.

        Capacity is provisioned from a cardinality estimate that may be
        off (e.g. pre-filter dimension size); cache-residence and memory
        accounting should reflect the data actually stored, at ~50 %% load
        factor for the slot arrays.
        """
        per_key = 2 * (self.keys.itemsize + self.rows.itemsize)
        payload = sum(arr.nbytes for arr in self.payload.values())
        return int(self.num_keys * per_key + payload)

    def __len__(self) -> int:
        return self.num_keys

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HashTable n={self.num_keys} cap={self.capacity}>"
