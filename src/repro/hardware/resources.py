"""Shared-resource models for the simulated server.

Two kinds of contention matter for reproducing the paper's evaluation:

* **Exclusive servers** — a CPU core runs one pipeline instance at a time, a
  GPU's compute engine runs one kernel at a time.  Modelled by
  :class:`FifoResource`.

* **Shared bandwidth** — a socket's DRAM channels are shared by all local
  cores (and by PCIe DMA traffic; the paper observes compute/transfer
  interference past ~16 cores in Figure 6), and each PCIe link is shared by
  concurrent DMA streams.  Modelled by :class:`BandwidthResource`, a
  processor-sharing server with per-job rate caps: a single core cannot pull
  more than its own streaming rate even when the bus is idle, but many cores
  together saturate the bus.

The allocation rule is progressive (water-filling): spare capacity left by
rate-capped jobs is redistributed to the uncapped ones, which is how real
memory controllers behave to first order and what makes the scalability
curves in Figures 6 and 7 flatten at the measured socket bandwidth.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from .sim import Event, Name, SimulationError, Simulator

__all__ = ["FifoResource", "BandwidthResource", "BandwidthJob"]


class FifoResource:
    """An exclusive server with a FIFO wait queue.

    Usage from a process::

        grant = resource.acquire()
        yield grant
        ...                      # hold the resource
        resource.release()
    """

    def __init__(self, sim: Simulator, name: str = "", slots: int = 1):
        if slots < 1:
            raise SimulationError("resource must have at least one slot")
        self.sim = sim
        self.name = name
        self.slots = slots
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        self.total_busy_time = 0.0
        self._busy_since: Optional[float] = None
        #: once set, every acquire (queued or future) fails with this
        self._poisoned: Optional[BaseException] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def busy_time(self) -> float:
        """Total simulated time during which the resource was held.

        Includes the currently open busy interval (``_busy_since`` to
        now): ``total_busy_time`` alone is only folded when the last
        holder releases, so a mid-run sample of it (e.g. a scheduler's
        utilization probe at a phase boundary) would under-count by the
        whole in-flight interval.  A pure read, like
        :attr:`BandwidthResource.busy_time`.
        """
        total = self.total_busy_time
        if self._busy_since is not None:
            total += self.sim.now - self._busy_since
        return total

    def acquire(self) -> Event:
        event = Event(self.sim, name=("acquire:{}", self.name))
        if self._poisoned is not None:
            event.fail(self._poisoned)
        elif self._in_use < self.slots:
            self._grant(event)
        else:
            self._waiters.append(event)
        return event

    def poison(self, exc: BaseException) -> None:
        """Kill the resource: fail every queued waiter and all future
        acquires with ``exc`` (device-loss injection).  Holders keep
        their grant — their next interaction with the dead device fails
        through its other poisoned resources — and their ``release()``
        stays legal so teardown paths never double-fault.  Idempotent.
        """
        if self._poisoned is not None:
            return
        self._poisoned = exc
        waiters, self._waiters = self._waiters, deque()
        for event in waiters:
            if not event.triggered:
                event.fail(exc)

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.total_busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, event: Event) -> None:
        self._in_use += 1
        if self._busy_since is None:
            self._busy_since = self.sim.now
        event.trigger(self)


class BandwidthJob:
    """One in-flight demand on a :class:`BandwidthResource`."""

    __slots__ = ("work", "remaining", "residue", "rate_cap", "rate", "done",
                 "label", "weight")

    def __init__(self, work: float, rate_cap: Optional[float], done: Event,
                 label: Name, weight: float = 1.0):
        self.work = work
        self.remaining = work
        #: float residue of serving ``work`` in slices: at or below it, done
        self.residue = 1e-9 * max(1.0, work)
        self.rate_cap = rate_cap
        self.rate = 0.0
        self.done = done
        self.label = label
        self.weight = weight


class BandwidthResource:
    """Processor-sharing bandwidth server with per-job rate caps.

    ``capacity`` is in work units per second (we use bytes/s throughout).
    ``submit(work, rate_cap)`` returns an event that triggers when the job's
    work has been served.  At every instant, capacity is divided among
    active jobs by water-filling: jobs whose cap is below the fair share get
    their cap; the remainder is split evenly among the rest.
    """

    def __init__(self, sim: Simulator, capacity: float, name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"bandwidth capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._jobs: list[BandwidthJob] = []
        self._last_update = 0.0
        #: bumped by every state change; a tick carrying an older one is stale
        self._current_epoch = -1
        self._work_served = 0.0
        self._busy_time = 0.0
        #: once set, in-flight and future jobs fail with this
        self._poisoned: Optional[BaseException] = None

    # -- public API ------------------------------------------------------

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    @property
    def busy_time(self) -> float:
        """Total simulated time during which at least one job was active.

        A pure read: the open interval since the last state change is
        added here, never folded into the accounting, so sampling the
        resource cannot move the float results of the jobs it serves.
        """
        if self._jobs:
            return self._busy_time + (self.sim.now - self._last_update)
        return self._busy_time

    @property
    def total_work_served(self) -> float:
        """Work units served so far, the open interval included (a pure
        read, like :attr:`busy_time`)."""
        elapsed = self.sim.now - self._last_update
        total = self._work_served
        for job in self._jobs:
            total += job.rate * elapsed
        return total

    def submit(self, work: float, rate_cap: Optional[float] = None,
               label: Name = "", weight: float = 1.0) -> Event:
        """Enqueue ``work`` units; the returned event fires at completion.

        ``weight`` biases the fair share (DMA engines get arbitration
        priority over core load/store streams on real memory controllers).
        """
        if work < 0:
            raise SimulationError(f"negative work: {work}")
        if rate_cap is not None and rate_cap <= 0:
            raise SimulationError(f"rate cap must be positive, got {rate_cap}")
        if weight <= 0:
            raise SimulationError(f"weight must be positive, got {weight}")
        done = Event(self.sim, name=("bw:{}:{}", self.name, label))
        if self._poisoned is not None:
            done.fail(self._poisoned)
            return done
        if work == 0:
            done.trigger(None)
            return done
        self._advance()
        self._jobs.append(BandwidthJob(float(work), rate_cap, done, label, weight))
        self._reschedule()
        return done

    def poison(self, exc: BaseException) -> None:
        """Kill the resource: fail every in-flight job and all future
        submits with ``exc`` (device-loss injection).  Bumps the epoch
        counter so any already-scheduled completion tick becomes a
        no-op instead of re-serving the dead jobs.  Idempotent.
        """
        if self._poisoned is not None:
            return
        self._advance()
        self._current_epoch += 1
        self._poisoned = exc
        jobs, self._jobs = self._jobs, []
        for job in jobs:
            if not job.done.triggered:
                job.done.fail(exc)

    # -- internals -------------------------------------------------------

    def _advance(self) -> None:
        """Account for work served since the last state change."""
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._jobs:
            self._busy_time += elapsed
            for job in self._jobs:
                served = job.rate * elapsed
                job.remaining -= served
                self._work_served += served
        self._last_update = now

    def _allocate(self) -> None:
        """Weighted water-filling allocation across active jobs."""
        pending = self._jobs
        remaining_capacity = self.capacity
        if len(pending) == 1:
            job = pending[0]
            share = job.weight * (remaining_capacity / job.weight)
            cap = job.rate_cap
            job.rate = cap if cap is not None and cap < share else share
            return
        # Jobs with caps below their weighted fair share get their cap;
        # the freed capacity is redistributed among the rest.
        while pending:
            total_weight = 0.0  # a left fold: builtin float sum compensates on 3.12+
            for job in pending:
                total_weight += job.weight
            per_weight = remaining_capacity / total_weight
            uncapped = []
            for job in pending:
                cap = job.rate_cap
                if cap is not None and cap < job.weight * per_weight:
                    job.rate = cap
                    remaining_capacity -= cap
                else:
                    uncapped.append(job)
            if len(uncapped) == len(pending):
                for job in pending:
                    job.rate = job.weight * per_weight
                return
            pending = uncapped
        # All jobs were capped below the fair share; spare capacity is idle.

    def _reschedule(self) -> None:
        """Recompute rates and schedule the next completion."""
        self._current_epoch = epoch = self._current_epoch + 1
        jobs = self._jobs
        finished = False
        for job in jobs:
            if job.remaining <= job.residue:
                job.remaining = 0.0
                job.done.trigger(None)
                finished = True
        if finished:
            # (zeroed just above: exactly the finished ones)
            self._jobs = jobs = [job for job in jobs if job.remaining]
        if not jobs:
            return
        self._allocate()
        next_finish = None
        for job in jobs:
            if job.rate > 0:
                finish = job.remaining / job.rate
                if next_finish is None or finish < next_finish:
                    next_finish = finish
        if next_finish is None:
            raise SimulationError(
                f"bandwidth resource {self.name!r} stalled: no job makes progress"
            )
        if not math.isfinite(next_finish):
            raise SimulationError(f"bandwidth resource {self.name!r} stalled")
        # Guard against float underflow: now + delay must strictly advance
        # the clock, or zero-progress ticks repeat forever.  The epsilon is
        # relative to the current time (ulp-sized steps still advance).
        min_tick = max(abs(self.sim.now) * 1e-12, 1e-15)
        next_finish = max(next_finish, min_tick)
        self.sim._schedule_call(self._on_tick, epoch, delay=next_finish)

    def _on_tick(self, epoch: int) -> None:
        if self._current_epoch != epoch:
            return  # a newer state change superseded this tick
        self._advance()
        self._reschedule()
