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
fire in schedule order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

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

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is consumed)."""
        return self.callbacks is None

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
        self.sim._schedule_event(self)
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
        self.sim._schedule_event(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run at the current instant.
            self.sim._schedule_call(lambda: fn(self))
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
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=f"Timeout({delay:g})")
        self._triggered = True
        self._value = value
        sim._schedule_event(self, delay=delay)


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The generator yields :class:`Event` objects.  When a yielded event
    triggers successfully the generator is resumed with the event's value;
    when it fails, the exception is thrown into the generator.  The process
    itself triggers with the generator's return value (``StopIteration``
    value) or fails with its uncaught exception.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        # Kick off at the current instant.
        sim._schedule_call(lambda: self._resume(None, None))

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            return
        self.sim._schedule_call(lambda: self._resume(None, Interrupt(cause)))

    def _on_wait_done(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wake-up (e.g. interrupted while waiting)
        self._waiting_on = None
        if event._ok:
            self._resume(event._value, None)
        else:
            self._resume(None, event._value)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
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
        target.add_callback(self._on_wait_done)


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
        self.items: list[Any] = []
        self._getters: list[Event] = []
        self._putters: list[tuple[Event, Any]] = []
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
        event = Event(self.sim, name=f"put:{self.name}")
        if self._getters:
            getter = self._getters.pop(0)
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
        event = Event(self.sim, name=f"get:{self.name}")
        if self.items:
            item = self.items.pop(0)
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
                self._getters.pop(0).trigger(Store.END)

    def _admit_putter(self) -> None:
        if self._putters and (self.capacity is None or len(self.items) < self.capacity):
            event, item = self._putters.pop(0)
            self.items.append(item)
            event.trigger(None)
        if self._closed and not self.items:
            while self._getters:
                self._getters.pop(0).trigger(Store.END)

    class _EndOfStream:
        __slots__ = ()

        def __repr__(self) -> str:
            return "<end-of-stream>"

    END = _EndOfStream()


class Simulator:
    """The event loop: virtual clock plus a time-ordered event heap."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._running = False

    # -- scheduling ------------------------------------------------------

    def _schedule_call(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._schedule_call(lambda: self._dispatch(event), delay=delay)

    @staticmethod
    def _dispatch(event: Event) -> None:
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for fn in callbacks:
                fn(event)

    # -- public factory helpers -----------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def process(self, gen: Generator, name: str = "") -> Process:
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
        are delivered to the waiters instead.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            while self._heap:
                time, _seq, fn = self._heap[0]
                if until is not None and time > until:
                    self.now = until
                    break
                heapq.heappop(self._heap)
                if time < self.now - 1e-12:
                    raise SimulationError("event scheduled in the past")
                self.now = time
                fn()
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
