"""Open-addressing hash table used by generated join pipelines.

Build and probe are the hot loops of every SSB query; generated pipelines
call into this table once per block, the way the paper's generated LLVM
IR calls its hash join runtime.  The implementation is vectorised open
addressing with linear probing over NumPy arrays, so a batch costs a few
whole-array passes plus a short loop over the keys that collided:

* keys are int64; slot ``s`` is ``(keys[s], rows[s])``, and an empty
  slot holds a sentinel key and row -1;
* a key's home slot is its Fibonacci hash — the key's bits viewed as
  uint64, times ``2**64 / golden ratio``, keeping the top
  ``log2(capacity)`` bits (:func:`hash_int64` is the product).  The view
  copies nothing, and the top bits of the product spread arithmetic
  progressions such as sequential or ``yyyymmdd`` keys evenly;
* :meth:`HashTable.insert` claims home slots for the whole batch at once
  and walks the keys that lost a claim one slot on per round (a
  data-parallel formulation of the usual insert loop — the same shape a
  GPU kernel uses);
* :meth:`HashTable.probe` returns, per probe key, the *row index* of the
  matching build tuple or -1: one gather of the home slots' keys and
  rows answers every key that met its own key or a hole, and the same
  walk finishes the few that met a foreign occupant.

The slot layout is host-only: nothing simulated reads which slot a key
took or how many rounds a batch walked.  ``capacity`` and :attr:`nbytes`
are the modelled bucket count and footprint — the executor judges cache
spill from :attr:`nbytes`, which prices simulated probes — so they follow
the sizing rule of ``__init__`` / ``_grow`` alone.

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
    """Fibonacci hash of int64 keys to uint64; a table keeps the top bits."""
    return np.asarray(keys, dtype=np.int64).view(np.uint64) * _MIX


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
        self._allocate(max(16, _next_pow2(int(expected * 2) + 1)))
        self.num_keys = 0
        self.payload_names = list(payload_names or [])
        self._payload: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=np.int64) for name in self.payload_names
        }
        #: per column, every inserted batch; joined into ``payload`` on read
        self._parts: dict[str, list[np.ndarray]] = {
            name: [] for name in self.payload_names
        }
        self._unjoined = False

    def _allocate(self, capacity: int) -> None:
        self.capacity = capacity
        self._mask = capacity - 1
        self._shift = np.uint64(65 - capacity.bit_length())
        self.keys = np.full(capacity, _EMPTY, dtype=np.int64)
        self.rows = np.full(capacity, -1, dtype=np.int64)

    def _home(self, keys: np.ndarray) -> np.ndarray:
        slot = hash_int64(keys)
        slot >>= self._shift
        return slot.view(np.int64)

    # -- build -------------------------------------------------------------

    def insert(self, keys: np.ndarray, payload: Optional[dict[str, np.ndarray]] = None) -> None:
        """Insert a batch of unique keys with aligned payload columns."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        payload = payload or {}
        missing = [n for n in self.payload_names if n not in payload]
        if missing:
            raise KeyError(f"insert missing payload columns {missing}")
        columns = {name: np.asarray(payload[name]) for name in self.payload_names}
        misaligned = {n: len(c) for n, c in columns.items() if len(c) != keys.size}
        if misaligned:
            raise ValueError(
                f"payload columns {misaligned} do not align with {keys.size} keys"
            )
        if keys.size == 0:
            return
        if self.num_keys + keys.size > self.capacity // 2:
            self._grow(self.num_keys + keys.size)
        base_row = self.num_keys
        self._place(keys, np.arange(base_row, base_row + keys.size, dtype=np.int64))
        self.num_keys += keys.size
        for name, column in columns.items():
            self._parts[name].append(column)
        self._unjoined = True

    def _place(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        slot = self._home(keys)
        for _ in range(self.capacity):
            occupant = self.keys[slot]
            resident = occupant == keys
            if resident.any():
                dup = keys[resident][0]
                raise DuplicateKeyError(f"duplicate build key {int(dup)}")
            # Claim free slots; NumPy fancy-store keeps the *last* writer on
            # intra-batch slot collisions.  A key whose slot does not hold
            # its row afterwards (lost the claim, or met a foreign occupant)
            # walks on.
            free = occupant == _EMPTY
            claimed = slot[free]
            self.keys[claimed] = keys[free]
            self.rows[claimed] = row_ids[free]
            lost = self.rows[slot] != row_ids
            if not lost.any():
                return
            slot, keys, row_ids = slot[lost], keys[lost], row_ids[lost]
            # Equal keys walk the same slots in step, so they claim the
            # same free slot in the same round: the loser finds its own
            # key there.
            if (self.keys[slot] == keys).any():
                raise DuplicateKeyError("duplicate keys within insert batch")
            slot += 1
            slot &= self._mask
        raise RuntimeError("hash table insert failed to converge")

    def _grow(self, needed: int) -> None:
        old_keys = self.keys
        old_rows = self.rows
        self._allocate(_next_pow2(max(needed * 4, self.capacity * 2)))
        live = old_keys != _EMPTY
        if np.any(live):
            self._place(old_keys[live], old_rows[live])

    @property
    def payload(self) -> dict[str, np.ndarray]:
        """Payload columns, row-aligned; batches are joined on first read."""
        if self._unjoined:
            for name, parts in self._parts.items():
                parts[:] = [np.concatenate(parts)]
                self._payload[name] = parts[0]
            self._unjoined = False
        return self._payload

    # -- probe -------------------------------------------------------------

    def probe(self, keys: np.ndarray) -> np.ndarray:
        """Row index of the build match per key, or -1 on a miss."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        slot = self._home(keys)
        occupant = self.keys.take(slot)
        # an empty slot's row is -1, so the gather already answers every
        # key that found its own key or a hole at home
        result = self.rows.take(slot)
        walking = np.flatnonzero((occupant != keys) & (occupant != _EMPTY))
        slot, keys = slot[walking], keys[walking]
        for _ in range(self.capacity):
            if not walking.size:
                return result
            slot += 1
            slot &= self._mask
            occupant = self.keys.take(slot)
            result[walking] = self.rows.take(slot)
            keep = (occupant != keys) & (occupant != _EMPTY)
            walking, slot, keys = walking[keep], slot[keep], keys[keep]
        raise RuntimeError("hash table probe failed to converge")

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
