"""Process-based discrete-event simulation kernel.

This module is the substrate on which the whole reproduction runs.  The
paper evaluates HetExchange on a physical 2-socket, 2-GPU server; we do not
have that hardware, so every pipeline instance, DMA transfer, and kernel
launch in this repository executes as a *process* inside this simulator,
and "execution time" means the simulated makespan.

The kernel follows the classical process-interaction style (compare SimPy):

* a :class:`Simulator` owns a virtual clock and an event heap;
* an :class:`Event` is a one-shot occurrence that processes can wait on;
* a :class:`Process` wraps a Python generator; the generator *yields* events
  and is resumed with the event's value when the event triggers;
* :class:`Store` is an asynchronous FIFO queue (the paper's asynchronous
  producer/consumer queues used by routers and gpu2cpu).

The implementation is deterministic: events scheduled for the same instant
fire in schedule order.  A heap entry is ``(time, seq, arg, fn)``: ``seq``
is a per-simulator counter incremented once per push, so it alone breaks
ties between entries of one instant and ``arg`` / ``fn`` are never
compared.  ``fn is None`` marks a triggered :class:`Event` (``arg``),
whose callbacks :meth:`Simulator.run` calls in place; any other entry is
the call ``fn(arg)``.  Nothing is allocated per event beyond the entry.

Names are for people (``repr()``, error messages), so they are formatted
when read, not when the event is created: a name is a ``str`` or the
parts ``(format, *args)`` of one.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional, Union

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Store",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


#: a name, or the ``(format, *args)`` parts of one (args may nest)
Name = Union[str, tuple]


def _text(name: Any) -> Any:
    if isinstance(name, tuple):
        return name[0].format(*map(_text, name[1:]))
    return name


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (double-trigger, deadlock, ...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; :meth:`trigger` (or :meth:`fail`) moves them to
    the *triggered* state and schedules their callbacks to run at the
    current instant.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_name")

    def __init__(self, sim: "Simulator", name: Name = ""):
        self.sim = sim
        #: consumed (set to None) when the simulator runs them
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._name = name

    @property
    def name(self) -> str:
        return _text(self._name)

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError(f"event {self!r} has not triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self!r} has not triggered yet")
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks now."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now, seq, self, None))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiters will have ``exc`` raised in them."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now, seq, self, None))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run at the current instant.
            self.sim._schedule_call(fn, self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        label = self.name or self.__class__.__name__
        return f"<{label} {state}>"


class Timeout(Event):
    """An event that triggers automatically after a delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # ``not >=`` also refuses NaN, which every comparison calls False
        if not delay >= 0:
            raise SimulationError(f"invalid timeout delay: {delay}")
        super().__init__(sim, name=("Timeout({:g})", delay))
        self._triggered = True
        self._value = value
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now + delay, seq, self, None))


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The generator yields :class:`Event` objects.  When a yielded event
    triggers successfully the generator is resumed with the event's value;
    when it fails, the exception is thrown into the generator.  The process
    itself triggers with the generator's return value (``StopIteration``
    value) or fails with its uncaught exception.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: Name = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        # Kick off at the current instant.
        sim._schedule_call(self._resume, None)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            return
        self.sim._schedule_call(self._resume, Interrupt(cause))

    def _on_wait_done(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wake-up (e.g. interrupted while waiting)
        self._waiting_on = None
        if event._ok:
            self._resume(None, event._value)
        else:
            self._resume(event._value)

    def _resume(self, exc: Optional[BaseException], value: Any = None) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Interrupt as unhandled:
            self.fail(SimulationError(f"unhandled Interrupt in {self.name}: {unhandled.cause!r}"))
            return
        except BaseException as error:
            self.fail(error)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(f"process {self.name} yielded non-event {target!r}"))
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("process yielded an event from another simulator"))
            return
        self._waiting_on = target
        # add_callback, in place: this runs once per resume
        callbacks = target.callbacks
        if callbacks is None:
            self.sim._schedule_call(self._on_wait_done, target)
        else:
            callbacks.append(self._on_wait_done)


class AllOf(Event):
    """Triggers when every child event has triggered successfully.

    Value is the list of child values in the original order.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="AllOf")
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.trigger([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.trigger([child._value for child in self._children])


class AnyOf(Event):
    """Triggers when the first child event triggers (its value/failure wins)."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="AnyOf")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._ok:
            self.trigger(event._value)
        else:
            self.fail(event._value)


class Store:
    """Asynchronous FIFO queue between simulated processes.

    This is the paper's producer/consumer queue: routers, gpu2cpu and
    mem-move all communicate through stores.  ``capacity`` bounds the number
    of buffered items (``put`` blocks when full); ``None`` means unbounded.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self.items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> Event:
        """Return an event that triggers once ``item`` is enqueued."""
        if self._closed:
            raise SimulationError(f"put() on closed store {self.name!r}")
        # The event is returned even when the item is enqueued at once, and
        # the producer yields it: it resumes behind the entries already
        # queued for this instant.  A put that skipped this turn reorders
        # same-instant work and moves simulated time (Fig. 5's depth-2
        # total went from 59.06146078131773 to 59.04468581672784 s).
        event = Event(self.sim, name=("put:{}", self.name))
        if self._getters:
            getter = self._getters.popleft()
            getter.trigger(item)
            event.trigger(None)
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            event.trigger(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that triggers with the next item.

        If the store is closed and drained, the event triggers with
        :data:`Store.END`.
        """
        event = Event(self.sim, name=("get:{}", self.name))
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            event.trigger(item)
        elif self._closed:
            event.trigger(Store.END)
        else:
            self._getters.append(event)
        return event

    def close(self) -> None:
        """Mark end-of-stream: pending and future gets yield ``Store.END``."""
        if self._closed:
            return
        self._closed = True
        if not self.items:
            while self._getters:
                self._getters.popleft().trigger(Store.END)

    def _admit_putter(self) -> None:
        if self._putters and (self.capacity is None or len(self.items) < self.capacity):
            event, item = self._putters.popleft()
            self.items.append(item)
            event.trigger(None)
        if self._closed and not self.items:
            while self._getters:
                self._getters.popleft().trigger(Store.END)

    class _EndOfStream:
        __slots__ = ()

        def __repr__(self) -> str:
            return "<end-of-stream>"

    END = _EndOfStream()


class Simulator:
    """The event loop: virtual clock plus a time-ordered event heap."""

    def __init__(self):
        self.now: float = 0.0
        #: (time, seq, arg, fn) entries — see the module docstring
        self._heap: list[tuple[float, int, Any, Optional[Callable[[Any], None]]]] = []
        self._seq = 0
        self._running = False

    # -- scheduling ------------------------------------------------------

    def _schedule_call(
        self, fn: Callable[[Any], None], arg: Any = None, delay: float = 0.0
    ) -> None:
        """Call ``fn(arg)`` ``delay`` seconds from now."""
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, seq, arg, fn))

    # -- public factory helpers -----------------------------------------

    def event(self, name: Name = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def process(self, gen: Generator, name: Name = "") -> Process:
        return Process(self, gen, name=name)

    def store(self, capacity: Optional[int] = None, name: str = "") -> Store:
        return Store(self, capacity=capacity, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains (or the clock passes ``until``).

        Returns the final clock value.  Raises the first uncaught failure of
        a process that nobody is waiting on only if the failure surfaced as
        a Python exception during a callback; process failures with waiters
        are delivered to the waiters instead.  An ``until`` before the
        clock (or NaN) raises :class:`SimulationError`: time never runs back.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        limit = math.inf if until is None else float(until)
        if not limit >= self.now:
            raise SimulationError(
                f"run(until={until}) would move the clock back from {self.now}"
            )
        self._running = True
        heap = self._heap
        pop = heappop
        try:
            while heap:
                if heap[0][0] > limit:
                    self.now = limit
                    break
                time, _seq, arg, fn = pop(heap)
                if time < self.now - 1e-12:
                    raise SimulationError("event scheduled in the past")
                self.now = time
                if fn is None:
                    # a triggered event: its callbacks run once, here
                    callbacks = arg.callbacks
                    arg.callbacks = None
                    for callback in callbacks:
                        callback(arg)
                else:
                    fn(arg)
        finally:
            self._running = False
        return self.now

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: run ``gen`` to completion and return its value."""
        proc = self.process(gen, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(f"deadlock: process {proc.name} never finished")
        if not proc.ok:
            raise proc.value
        return proc.value
