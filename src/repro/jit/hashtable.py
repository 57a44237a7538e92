"""Join table used by generated join pipelines.

Build and probe are the hot loops of every SSB query; generated pipelines
call into this table once per block, the way the paper's generated LLVM
IR calls its hash join runtime.  A table holds its keys in one of two
host layouts, chosen from the keys it is given:

* **direct** — used while every built key fits a window of consecutive
  keys within a byte budget: the window may take as many bytes as the
  hash layout's ``_SLOT_BYTES`` (16) per capacity slot.  The table is
  one array of row ids over that window, padded with a -1 at each end,
  so key ``k`` sits at ``k - base`` with ``base`` one below the window.
  Row ids are int16 while ``capacity <= 2**16`` (a table holds at most
  ``capacity // 2`` keys) and int32 beyond, so the window may span
  ``8 * capacity - 2`` or ``4 * capacity - 2`` keys.
  :meth:`HashTable.probe` is one subtract and one clipped gather: a key
  below the window clips onto the low padding, one above onto the high
  padding, and both read -1.  If ``k - base`` wraps for a key near the
  int64 limits it still cannot land on a live slot: slot ``i`` holds
  key ``base + i``, and two int64 values congruent modulo ``2**64`` are
  equal, so a wrapped difference that reaches ``i`` came from that very
  key.  Dense surrogate keys (SSB's ``custkey``, ``suppkey``,
  ``partkey``) and every SSB date table take this layout: 2 556
  ``yyyymmdd`` keys in a table of capacity 8 192 span 61 130 keys, within
  the 65 534 keys of an int16 window as heavy as the 131 072 B of hash
  slots it replaces.  The first batch anchors a window of
  ``2 * capacity`` keys centred on its ``[min, max]``, or a budget-wide
  one when it is wider.  A later batch
  outside the window re-windows once: the residents move into a
  budget-wide window that reaches from them towards the new keys, so
  ascending batches (a GPU building from 256-key blocks) stay direct.
  Only a batch that does not fit the budget together with the residents
  converts the table to the hash layout.  A grown table re-windows to
  at least ``2 * capacity`` keys in row ids wide enough for it.
  Keys are used as stored (int32 for every SSB key): subtracting the
  ``np.int64`` base makes the arithmetic int64 without a copy.
* **hash** — vectorised open addressing with linear probing over two
  int64 slot arrays, so a batch costs a few whole-array passes plus a
  short loop over the keys that collided.  Slot ``s`` is
  ``(keys[s], rows[s])``; an empty slot holds a sentinel key and row -1.
  A key's home slot is its Fibonacci hash — the key's bits viewed as
  uint64, times ``2**64 / golden ratio``, keeping the top
  ``log2(capacity)`` bits (:func:`hash_int64` is the product), which
  spreads arithmetic progressions such as sequential or ``yyyymmdd``
  keys evenly.  :meth:`HashTable.insert` claims home slots for the whole
  batch at once and walks the keys that lost a claim one slot on per
  round (a data-parallel formulation of the usual insert loop — the
  same shape a GPU kernel uses); a probe gathers the home slots' keys
  and rows, which answers every key that met its own key or a hole, and
  the same walk finishes the few that met a foreign occupant.  Keys
  are converted to int64 on this path only.

The direct window costs at most the slot arrays' 16 bytes per capacity
slot (4 or 8 for the default ``2 * capacity`` window), so the layout
rule never raises host memory.  Both layouts report
the same row index for every key, and the layout is host-only: nothing
simulated reads which layout a table took.  ``capacity`` is the
modelled bucket count, and :attr:`~HashTable.nbytes` and
:attr:`~HashTable.content_nbytes` are the modelled footprint of int64
key and row slots, computed from ``capacity`` and the key count — the
executor judges cache spill from ``nbytes``, which prices simulated
probes — so they follow the sizing rule of ``__init__`` / ``_grow``
alone, whatever the host arrays weigh.

Join keys in the supported plans are unique on the build side (SSB
dimension tables join on their primary keys); a duplicate key raises
:class:`DuplicateKeyError` naming it.  The hash layout's sentinel
``-(2**62)`` is not a valid key.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["HashTable", "DuplicateKeyError", "hash_int64"]

_EMPTY = np.int64(-(2**62))  # sentinel; valid keys must differ
#: Knuth/Fibonacci multiplicative constant for 64-bit hashing.
_MIX = np.uint64(0x9E3779B97F4A7C15)
#: modelled bytes of one slot: an int64 key and an int64 row index
_SLOT_BYTES = 16
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


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
    """Join table mapping unique int64 keys to build-row indices.

    Payload columns are stored row-aligned in ``payload``; a probe hit
    yields a build row index into every payload array.  ``keys`` and
    ``rows`` are the hash layout's slot arrays, None while the table is
    direct.
    """

    def __init__(self, expected: int, payload_names: Optional[list[str]] = None):
        self.capacity = max(16, _next_pow2(int(expected * 2) + 1))
        self.num_keys = 0
        #: direct layout: row id of key ``_base + i`` at ``_direct[i]``,
        #: None once hashed.  The first insert anchors it; it is allocated
        #: here, as the slot arrays were, because allocating it among the
        #: build's temporaries raised peak RSS.
        self._direct: Optional[np.ndarray] = self._window(2 * self.capacity)
        self._base = np.int64(0)
        self.keys: Optional[np.ndarray] = None
        self.rows: Optional[np.ndarray] = None
        self.payload_names = list(payload_names or [])
        self._payload: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=np.int64) for name in self.payload_names
        }
        #: per column, every inserted batch; joined into ``payload`` on read
        self._parts: dict[str, list[np.ndarray]] = {
            name: [] for name in self.payload_names
        }
        self._unjoined = False

    def _allocate_slots(self) -> None:
        self._mask = self.capacity - 1
        self._shift = np.uint64(65 - self.capacity.bit_length())
        self.keys = np.full(self.capacity, _EMPTY, dtype=np.int64)
        self.rows = np.full(self.capacity, -1, dtype=np.int64)

    def _home(self, keys: np.ndarray) -> np.ndarray:
        slot = hash_int64(keys)
        slot >>= self._shift
        return slot.view(np.int64)

    # -- build -------------------------------------------------------------

    def insert(self, keys: np.ndarray, payload: Optional[dict[str, np.ndarray]] = None) -> None:
        """Insert a batch of unique keys with aligned payload columns."""
        keys = _as_keys(keys)
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
        stop = self.num_keys + keys.size
        if self._direct is not None and not self._fits(keys):
            self._to_hash()
        if self._direct is not None:
            self._scatter(keys, np.arange(self.num_keys, stop, dtype=self._direct.dtype))
        else:
            self._place(
                keys.astype(np.int64, copy=False),
                np.arange(self.num_keys, stop, dtype=np.int64),
            )
        self.num_keys += keys.size
        for name, column in columns.items():
            self._parts[name].append(column)
        self._unjoined = True

    def _fits(self, keys: np.ndarray) -> bool:
        """Can the direct window hold ``keys``?  An empty table anchors a
        window of ``2 * capacity`` keys around them, or of the byte
        budget's keys when they are wider.  A later batch outside the
        window moves the residents once into a budget-wide window that
        holds both, reaching from the residents towards the new keys."""
        low, high = int(keys.min()), int(keys.max())
        base, top = int(self._base), int(self._base) + self._direct.size - 2
        if not self.num_keys:
            window = 2 * self.capacity
            if high - low >= window:
                window = self._budget()
            anchored = _centre(low, high, window)
            if anchored is None:
                return False
            if self._direct.size != window + 2 or self._direct.dtype != _row_ids(self.capacity):
                self._direct = self._window(window)
            self._base = np.int64(anchored)
            return True
        if base < low and high <= top:
            return True
        live = np.flatnonzero(self._direct >= 0)
        low, high = min(low, base + int(live[0])), max(high, base + int(live[-1]))
        window = self._budget()
        moved = _anchor(low, high, window, low if high > top else high - window + 1)
        if moved is None:
            return False
        self._move(window, moved)
        return True

    def _budget(self) -> int:
        """Keys a direct window may span: as many row ids and paddings as
        fit the hash layout's ``_SLOT_BYTES`` per capacity slot."""
        row_bytes = np.dtype(_row_ids(self.capacity)).itemsize
        return _SLOT_BYTES * self.capacity // row_bytes - 2

    def _window(self, keys: int) -> np.ndarray:
        """An empty direct window of ``keys`` keys and its two paddings."""
        return np.full(keys + 2, -1, dtype=_row_ids(self.capacity))

    def _move(self, window: int, base: int) -> None:
        """Re-allocate the direct window as ``window`` keys above ``base``
        and copy the resident row ids in once."""
        old, shift = self._direct, int(self._base) - base
        live = np.flatnonzero(old >= 0)
        self._direct = self._window(window)
        first, stop = int(live[0]), int(live[-1]) + 1
        self._direct[first + shift : stop + shift] = old[first:stop]
        self._base = np.int64(base)

    def _scatter(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        slot = keys - self._base
        held = self._direct.take(slot)
        if held.max() >= 0:
            dup = keys[(held >= 0).argmax()]
            raise DuplicateKeyError(f"duplicate build key {int(dup)}")
        self._direct[slot] = row_ids
        # a fancy store keeps the last writer of a repeated key, so an
        # earlier copy does not find its row; clear the batch and name it
        lost = self._direct.take(slot) != row_ids
        if lost.any():
            self._direct[slot] = -1
            _raise_within_batch(keys[lost.argmax()])

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
            repeat = self.keys[slot] == keys
            if repeat.any():
                _raise_within_batch(keys[repeat.argmax()])
            slot += 1
            slot &= self._mask
        raise RuntimeError("hash table insert failed to converge")

    def _grow(self, needed: int) -> None:
        self.capacity = _next_pow2(max(needed * 4, self.capacity * 2))
        if self._direct is not None:
            if self.num_keys:
                # at least ``2 * capacity`` keys around the residents, in
                # row ids wide enough for the new capacity
                live = np.flatnonzero(self._direct >= 0) + int(self._base)
                window = max(2 * self.capacity, self._direct.size - 2)
                self._move(window, _centre(int(live[0]), int(live[-1]), window))
            return
        old_keys = self.keys
        old_rows = self.rows
        self._allocate_slots()
        live = old_keys != _EMPTY
        if np.any(live):
            self._place(old_keys[live], old_rows[live])

    def _to_hash(self) -> None:
        """Move every resident key into freshly allocated hash slots."""
        live = np.flatnonzero(self._direct >= 0)
        row_ids = self._direct[live].astype(np.int64)
        keys = live + self._base
        self._direct = None  # freed before the slots are allocated
        self._allocate_slots()
        if live.size:
            self._place(keys, row_ids)

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
        keys = _as_keys(keys)
        if self._direct is not None:
            return self._direct.take(keys - self._base, mode="clip")
        keys = keys.astype(np.int64, copy=False)
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
        """Modelled footprint: ``capacity`` slots plus payload columns."""
        payload = sum(arr.nbytes for arr in self.payload.values())  # repro: noqa[RP009] integer-valued
        return int(self.capacity * _SLOT_BYTES + payload)

    @property
    def content_nbytes(self) -> int:
        """Footprint a well-sized table would have: live entries only.

        Capacity is provisioned from a cardinality estimate that may be
        off (e.g. pre-filter dimension size); cache-residence and memory
        accounting should reflect the data actually stored, at ~50 %% load
        factor for the slot arrays.
        """
        payload = sum(arr.nbytes for arr in self.payload.values())  # repro: noqa[RP009] integer-valued
        return int(self.num_keys * 2 * _SLOT_BYTES + payload)

    def __len__(self) -> int:
        return self.num_keys

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        layout = "direct" if self._direct is not None else "hash"
        return f"<HashTable n={self.num_keys} cap={self.capacity} {layout}>"


def _row_ids(capacity: int) -> type:
    """Row-id type of a direct window: a table holds at most
    ``capacity // 2`` keys, so int16 row ids last to capacity ``2**16``.

    Narrow ids stretch the byte budget: intp ones would span only
    ``2 * capacity`` keys, too few for a date table.  NumPy converts
    them before a ``take``; the SSB hybrid drive's payload gathers cost
    3.4 ms with them against 2.7 ms with intp ids (Xeon, NumPy 2.4)."""
    return np.int16 if capacity <= 1 << 16 else np.int32


def _as_keys(keys) -> np.ndarray:
    """Join keys as stored when they are signed integers, else as int64."""
    keys = np.asarray(keys)
    return keys if keys.dtype.kind == "i" else keys.astype(np.int64)


def _anchor(low: int, high: int, window: int, start: int) -> Optional[int]:
    """Base of a window of ``window`` keys from ``start``, moved the least
    to keep it and its base (one below it) int64 values; None when
    ``[low, high]`` does not fit it."""
    start = min(max(start, _INT64_MIN + 1), _INT64_MAX - window + 1)
    return start - 1 if start <= low and high < start + window else None


def _centre(low: int, high: int, window: int) -> Optional[int]:
    """Base of a window of ``window`` keys centred on ``[low, high]``."""
    return _anchor(low, high, window, low - (window - (high - low + 1)) // 2)


def _raise_within_batch(key) -> None:
    raise DuplicateKeyError(f"duplicate build key {int(key)} within insert batch")
