"""One fingerprint per drive, checked against ``tests/signatures.json``.

For the length of a drive, :class:`Fingerprint` wraps ``Simulator.run``
and, for each run, ``repro.hardware.sim.heappop`` (``run`` looks it up
each time it starts), so every entry the kernel dispatches is folded
into its simulator's log: the entry's time (``float.hex``), its ``seq``
and the qualname of its call, or of each callback of its event.  Nothing
under ``src/`` changes and nothing is scheduled.  Over the drive, each
simulator must have popped exactly the entries its log saw.

:func:`check` compares a finished drive's entry — digest, event count,
makespan and any extra field — with the committed file, inside the test
that ran it; a drive with no entry fails naming its key.  With
``REPRO_FINGERPRINTS`` set to a path, drives record their entries
instead and the session writes them there: ``python tools/fingerprints.py``
regenerates the file that way and prints the keys added, moved and gone
stale.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from heapq import heappop
from pathlib import Path

from repro.hardware import sim as sim_module
from repro.hardware.sim import Simulator
from repro.ssb.harness import FigureResult

FILE = Path(__file__).with_name("signatures.json")
#: regeneration: the path the session writes every entry it reached to
WRITE_TO = os.environ.get("REPRO_FINGERPRINTS")
#: key -> entry of every drive this session ran, and the test that
#: first ran it (recorded only to regenerate the file)
REACHED: dict[str, dict] = {}
TESTS: dict[str, str] = {}


@functools.cache
def committed() -> dict[str, dict]:
    return json.loads(FILE.read_text()) if FILE.exists() else {}


class _Log:
    """One simulator's dispatched entries over a drive."""

    def __init__(self, sim: Simulator):
        self.sim, self.popped, self.now = sim, sim._seq - len(sim._heap), sim.now
        self.times, self.seqs, self.names = times, seqs, names = [], [], []

        def pop(heap):
            entry = heappop(heap)
            times.append(entry[0])
            seqs.append(entry[1])
            call = entry[3] or entry[2].callbacks
            if type(call) is not list:
                names.append(call.__qualname__)
            else:  # a triggered event's callbacks
                names.append(tuple([callback.__qualname__ for callback in call]))
            return entry

        self.pop = pop


class Fingerprint:
    """``with Fingerprint() as drive: ...``, then ``drive.check(key)``."""

    def __init__(self) -> None:
        #: simulator -> its log, in the order the simulators first ran
        self.logs: dict[Simulator, _Log] = {}

    def __enter__(self) -> Fingerprint:
        self._run = run = Simulator.run

        def folding_run(sim, until=None):
            if sim not in self.logs:
                self.logs[sim] = _Log(sim)
            sim_module.heappop, saved = self.logs[sim].pop, sim_module.heappop
            try:
                return run(sim, until)
            finally:
                sim_module.heappop = saved

        Simulator.run = folding_run
        return self

    def __exit__(self, *exc_info) -> None:
        Simulator.run = self._run

    def entry(self, logs=None, **fields) -> dict:
        """Digest, event count and makespan (the clock's advance) of
        ``logs`` (default: every simulator of the drive), and ``fields``."""
        digest, events, seconds = hashlib.blake2b(digest_size=16), 0, 0.0
        for log in self.logs.values() if logs is None else logs:
            events += len(log.seqs)
            missed = log.sim._seq - len(log.sim._heap) - log.popped - len(log.seqs)
            assert not missed, f"{missed} heap entries bypassed the fingerprint"
            folded = ([*map(float.hex, log.times)], log.seqs, log.names)
            digest.update(repr(folded).encode())
            # a left fold: the builtin sum() is compensated from Python 3.12 on
            seconds += log.sim.now - log.now
        entry = {"digest": digest.hexdigest(), "events": events, "makespan": seconds}
        return {**entry, **fields}

    def check(self, key: str, names=None, **fields) -> None:
        """Check the drive's entry under ``key`` or, given ``names``, one
        per simulator (in the order they first ran) under ``key/name``."""
        if names is None:
            return check(key, self.entry(**fields))
        assert len(names) == len(self.logs), (names, len(self.logs))
        for name, log in zip(names, self.logs.values()):
            check(f"{key}/{name}", self.entry([log], **fields))


def check(key: str, entry: dict) -> None:
    """``entry`` against the committed file, or recorded to regenerate it."""
    seen = REACHED.setdefault(key, entry)
    assert seen == entry, f"drive {key} is not repeatable: {seen} != {entry}"
    if WRITE_TO:
        test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
        TESTS.setdefault(key, test)
        return
    want = committed().get(key)
    regenerate = "regenerate with `python tools/fingerprints.py`"
    assert want is not None, f"drive {key} has no fingerprint: {regenerate}"
    want = {name: value for name, value in want.items() if name != "test"}
    assert entry == want, f"drive {key} moved: {want} -> {entry}; {regenerate}"


def call_key(fn, *args, **kwargs) -> str:
    """The key of a drive that is one call: the call, spelled out."""
    call = [*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())]
    return f"{fn.__name__}({', '.join(call)})"


def drive(fn, *args, key=None, **kwargs):
    """``fn(*args, **kwargs)`` as one checked drive, keyed by the call (or
    ``key``); each system of a figure that ran a query gets its own entry."""
    with Fingerprint() as fingerprint:
        result = fn(*args, **kwargs)
    names = None
    if isinstance(result, FigureResult):
        ran = [any(map(math.isfinite, s.values())) for s in result.seconds.values()]
        names = [name for name, did in zip(result.seconds, ran) if did]
    fingerprint.check(key or call_key(fn, *args, **kwargs), names)
    return result
