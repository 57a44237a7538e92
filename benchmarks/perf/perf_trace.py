"""Tracing for the layered benchmark: spans, profile roll-up, trace file.

Nothing here runs during a timed drive.  The traced drive is one *extra*
drive of the same workload, executed after the timed ones, that yields
three things:

* **host-clock spans** (:class:`Tracer`) recorded by the benchmark's own
  files around each call they make into the public API — name, start,
  end, parent.  A disabled tracer hands out one shared no-op context, so
  the timed drives run the identical code path without recording.
* **a per-layer roll-up of a ``cProfile`` run** (:func:`layer_rollup`):
  every profiled code object's *self* time (its own time minus its
  callees') and call count is attributed to one of
  :data:`LAYERS` by the source file it lives in, so the layer values sum
  to the profiled total exactly.
* **simulated-clock spans** rebuilt per query from public post-run
  fields (built by the workloads, see ``perf_workloads``).

Everything stays in memory until :func:`write_chrome_trace` dumps it
once, as Chrome trace-event JSON (open in ``chrome://tracing`` or
Perfetto): pid 1 is the host clock, pid 2 the simulated clock.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

#: the 18 layers a profiled function can land in; src/repro modules by
#: file, C functions split numpy / builtins, and ``builtins`` doubling as
#: the catch-all (stdlib, the harness's own frames) so the layers sum to
#: the profiled total
LAYERS = (
    "hardware.sim",
    "hardware.resources",
    "hardware.model",
    "core.router",
    "core.mem_move",
    "core.ops",
    "jit.hashtable",
    "jit.pipeline",
    "jit.compile",
    "algebra",
    "data",
    "engine.executor",
    "engine.scheduler",
    "engine.tenancy",
    "engine.metrics",
    "engine.fleet",
    "numpy",
    "builtins",
)

#: path fragment (relative to src/repro/) -> layer; first match wins
_FILE_LAYERS = (
    ("hardware/sim.py", "hardware.sim"),
    ("hardware/resources.py", "hardware.resources"),
    ("hardware/", "hardware.model"),
    ("core/router.py", "core.router"),
    ("core/mem_move.py", "core.mem_move"),
    ("core/", "core.ops"),
    ("jit/hashtable.py", "jit.hashtable"),
    ("jit/pipeline.py", "jit.pipeline"),
    ("jit/provider.py", "jit.pipeline"),
    ("jit/", "jit.compile"),
    ("algebra/", "algebra"),
    ("memory/", "data"),
    ("storage/", "data"),
    ("ssb/", "data"),
    ("engine/scheduler.py", "engine.scheduler"),
    ("engine/config.py", "engine.scheduler"),
    ("engine/tenancy.py", "engine.tenancy"),
    ("engine/metrics.py", "engine.metrics"),
    ("engine/fleet.py", "engine.fleet"),
    ("engine/failover.py", "engine.fleet"),
    ("engine/faults.py", "engine.fleet"),
    ("engine/", "engine.executor"),
)

_HEAPPUSH = "<built-in method _heapq.heappush>"


def layer_of(filename: str, funcname: str) -> str:
    """The layer one profiled function's self time belongs to."""
    if filename.startswith("<jit:"):
        return "jit.pipeline"  # generated pipeline code
    path = filename.replace(os.sep, "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        relative = path[marker + len("/repro/") :]
        for fragment, layer in _FILE_LAYERS:
            if relative.startswith(fragment):
                return layer
    if "/numpy/" in path or "numpy" in funcname:
        return "numpy"
    return "builtins"


@dataclass
class LayerProfile:
    """Per-layer self time and calls of one profiled drive."""

    self_seconds: dict[str, float]
    calls: dict[str, int]
    total_seconds: float
    heap_pushes: int


def profile_call(fn: Callable[[], Any]) -> tuple[Any, LayerProfile, float]:
    """Run ``fn`` under cProfile; returns (result, roll-up, wall seconds)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    result = profiler.runcall(fn)
    wall = time.perf_counter() - start
    return result, layer_rollup(profiler.getstats()), wall


def layer_rollup(entries: list) -> LayerProfile:
    """Fold raw ``cProfile`` entries into :data:`LAYERS`.

    The raw entries are one per code object.  ``pstats`` keys them by
    (file, line, name) instead, and generated pipelines of different
    queries share all three, so it would keep one and drop the rest.
    """
    self_seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    heap_pushes = 0
    for entry in entries:
        code = entry.code
        if isinstance(code, str):  # a C function: '<built-in method ...>'
            filename, funcname = "~", code
        else:
            filename, funcname = code.co_filename, code.co_name
        layer = layer_of(filename, funcname)
        self_seconds[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        if funcname == _HEAPPUSH:
            heap_pushes += entry.callcount
    return LayerProfile(
        self_seconds=self_seconds,
        calls=calls,
        total_seconds=sum(self_seconds.values()),
        heap_pushes=heap_pushes,
    )


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    args: dict


_NO_SPAN = contextlib.nullcontext()


@dataclass
class Tracer:
    """Host-clock span recorder (``perf_counter`` seconds)."""

    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str, **args: Any):
        """Context manager timing one call into the program."""
        if not self.enabled:
            return _NO_SPAN
        return self._record(name, args)

    @contextlib.contextmanager
    def _record(self, name: str, args: dict) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, args))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()


@dataclass
class SimSpan:
    """One interval on the simulated clock, rebuilt from public fields."""

    name: str
    start: float
    seconds: float
    #: the query the interval belongs to (spans of one query share it)
    query: str
    #: name of the enclosing span ('drive' for a query's root span)
    parent: str = "drive"
    args: dict = field(default_factory=dict)


def write_chrome_trace(
    path: str, host_spans: list[Span], sim_spans: list[SimSpan]
) -> None:
    """Write every span once, as Chrome trace-event JSON."""
    events: list[dict] = [
        {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "host clock"}},
        {
            "ph": "M",
            "pid": 2,
            "name": "process_name",
            "args": {"name": "simulated clock"},
        },
    ]
    origin = min((span.start for span in host_spans), default=0.0)
    for index, span in enumerate(host_spans):
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "name": span.name,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {**span.args, "id": index, "parent": span.parent},
            }
        )
    lanes: dict[str, int] = {}
    for span in sim_spans:
        events.append(
            {
                "ph": "X",
                "pid": 2,
                "tid": lanes.setdefault(span.query, len(lanes) + 1),
                "name": span.name,
                "ts": span.start * 1e6,
                "dur": span.seconds * 1e6,
                "args": {**span.args, "query": span.query, "parent": span.parent},
            }
        )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        fh.write("\n")
