"""Chaos tier: seeded fault injection and the typed failure taxonomy.

A production fleet cannot assume GPUs that stay alive for the duration
of a query; this module makes the failure modes first-class simulation
inputs so the degradation machinery (typed outcomes, bounded retry,
CPU-only fallback) is exercised by injected faults instead of only by
unit tests:

* **device loss** — :class:`DeviceLossFault` kills a GPU at a simulated
  time or when the batch crosses its N-th phase boundary
  (:meth:`Server.fail_device <repro.hardware.topology.Server.fail_device>`
  poisons the device's compute slot, PCIe link, HBM and memory node, so
  in-flight DMAs and queued kernel launches fail with
  :class:`~repro.hardware.topology.DeviceLostError`);
* **DMA stragglers** — :class:`StragglerFault` multiplies a sampled
  transfer's end-to-end latency (the mem-move's ``straggler`` hook);
  armed together with ``transfer_timeout_seconds`` a straggling DMA
  trips a typed :class:`~repro.core.mem_move.TransferTimeout`;
* **spurious aborts** — :class:`SpuriousAbortFault` interrupts a running
  query's driver at a simulated time (an abort storm in miniature);
* **server loss / server stall** — :class:`ServerLossFault` and
  :class:`ServerStallFault` are *fleet-scope* faults: an
  :class:`~repro.engine.fleet.EngineFleet` arms them against one of its
  backends (a whole :class:`~repro.engine.scheduler.EngineServer` dies,
  or stops responding for a window).  A single-server
  :class:`FaultInjector` ignores them — there is no "rest of the fleet"
  to degrade onto.

Everything is deterministic per :attr:`FaultPlan.seed`: the injector
draws from its own ``random.Random`` and all firing times are simulated
times, so a chaos run replays bit-identically.

:func:`classify_failure` is the scheduler's drive-loop classifier:
device loss, transfer timeouts and aborts are *retryable* (the
scheduler's :class:`RetryPolicy` re-admits the query on a placement
excluding dead devices, falling back to CPU-only); anything else —
plan bugs, out-of-device-memory, placement errors — stays *fatal*.
Server-level failures (:class:`ServerLostError`,
:class:`ServerStallTimeout`) are typed but **not** retryable at the
server: no reshaped placement inside a lost or partitioned server can
help.  The fleet's :class:`~repro.engine.failover.FallbackChain`
re-dispatches them to another replica instead (see
``FAILOVER_CLASSES`` in :mod:`repro.engine.failover`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.mem_move import TransferTimeout
from ..hardware.sim import Interrupt, Simulator
from ..hardware.topology import DeviceLostError, Server

__all__ = [
    "DeviceLostError",
    "TransferTimeout",
    "ServerLostError",
    "ServerStallTimeout",
    "DeviceLossFault",
    "StragglerFault",
    "SpuriousAbortFault",
    "ServerLossFault",
    "ServerStallFault",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "RETRYABLE_CLASSES",
    "classify_failure",
]

#: failure classes the retry machinery may re-admit (anything else is
#: a genuine bug or capacity limit and fails the session terminally)
RETRYABLE_CLASSES = ("device_lost", "transfer_timeout", "aborted")


class ServerLostError(RuntimeError):
    """A whole engine server died; its in-flight queries are gone.

    Raised into a session's driver (as an :class:`Interrupt` cause) when
    a fleet-level :class:`ServerLossFault` fires.  Not retryable at the
    server — the fleet re-dispatches the shard query to another replica.
    """


class ServerStallTimeout(RuntimeError):
    """A dispatch to a stalled/partitioned server exceeded its timeout.

    Raised by the fleet dispatcher's watchdog when a backend stops
    responding (:class:`ServerStallFault`); the in-flight session is
    cancelled with this as the typed cause, and the shard query fails
    over to the next live replica.
    """


def classify_failure(error: BaseException) -> tuple[str, bool]:
    """Map an exception chain to a ``(class, retryable)`` pair.

    Walks ``__cause__``/``__context__`` (the executor wraps worker
    failures in :class:`~repro.engine.executor.QueryError` ``from`` the
    root cause) looking for the typed chaos failures; everything else
    classifies ``("fatal", False)``.  An :class:`Interrupt` carrying an
    exception as its ``cause`` is classified by that cause (the fleet
    interrupts drivers with :class:`ServerLostError` /
    :class:`ServerStallTimeout` instances); a plain string cause stays
    the chaos tier's retryable ``aborted``.

    ``retryable`` means "a reshaped placement *within this server*
    could help" — so server-level failures are typed but not
    server-retryable; the fleet's failover layer owns those.
    """
    seen: set[int] = set()
    exc: Optional[BaseException] = error
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        if isinstance(exc, DeviceLostError):
            return "device_lost", True
        if isinstance(exc, TransferTimeout):
            return "transfer_timeout", True
        if isinstance(exc, ServerLostError):
            return "server_lost", False
        if isinstance(exc, ServerStallTimeout):
            return "stall_timeout", False
        if isinstance(exc, Interrupt):
            if isinstance(exc.cause, BaseException):
                # an interrupt delivering a typed failure: classify the
                # payload, not the delivery mechanism
                exc = exc.cause
                continue
            return "aborted", True
        exc = exc.__cause__ or exc.__context__
    return "fatal", False


@dataclass(frozen=True)
class DeviceLossFault:
    """Kill ``gpu_id`` at a simulated time or a global phase boundary.

    ``at_phase_boundary`` counts boundary crossings across the whole
    batch (1 = the first time any running query crosses a dependency
    wave); exactly one of the two triggers must be given.
    """

    gpu_id: int
    at_seconds: Optional[float] = None
    at_phase_boundary: Optional[int] = None

    def __post_init__(self):
        if (self.at_seconds is None) == (self.at_phase_boundary is None):
            raise ValueError("specify exactly one of at_seconds / at_phase_boundary")
        if self.at_seconds is not None and self.at_seconds < 0:
            raise ValueError("at_seconds must be >= 0")
        if self.at_phase_boundary is not None and self.at_phase_boundary < 1:
            raise ValueError("at_phase_boundary is 1-based")


@dataclass(frozen=True)
class StragglerFault:
    """Multiply a sampled fraction of DMA latencies by ``multiplier``."""

    probability: float
    multiplier: float = 4.0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")


@dataclass(frozen=True)
class SpuriousAbortFault:
    """Interrupt a running query's driver at ``at_seconds``.

    ``target`` names the session to abort; ``None`` picks the
    longest-running active session deterministically.  A firing with
    nothing running is a no-op (counted nowhere).
    """

    at_seconds: float
    target: Optional[str] = None

    def __post_init__(self):
        if self.at_seconds < 0:
            raise ValueError("at_seconds must be >= 0")


@dataclass(frozen=True)
class ServerLossFault:
    """Kill a whole fleet backend at ``at_seconds`` of simulated time.

    ``server_id`` names the :class:`~repro.engine.fleet.EngineFleet`
    backend (``"srv0"``, ``"srv1"``, ...).  Fleet-scope: a lost server's
    in-flight and queued sessions fail typed (``server_lost``), its
    circuit breaker is forced open, and it never recovers for the rest
    of the drive.
    """

    server_id: str
    at_seconds: float

    def __post_init__(self):
        if self.at_seconds < 0:
            raise ValueError("at_seconds must be >= 0")


@dataclass(frozen=True)
class ServerStallFault:
    """Partition a fleet backend for ``[at_seconds, at_seconds + duration)``.

    A stalled server keeps computing but stops responding to the fleet:
    health probes fail for the window (opening the breaker) and the
    dispatcher's watchdog times dispatches out (``stall_timeout``).
    Probes succeed again once the window passes, driving the breaker
    through half-open back to closed.
    """

    server_id: str
    at_seconds: float
    duration_seconds: float

    def __post_init__(self):
        if self.at_seconds < 0:
            raise ValueError("at_seconds must be >= 0")
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """The full, seeded chaos schedule for one engine server (or fleet) run.

    ``server_losses``/``server_stalls`` are fleet-scope entries: they
    are armed by an :class:`~repro.engine.fleet.EngineFleet` against its
    backends and ignored by a single server's :class:`FaultInjector`
    (one server has no fleet to degrade onto).
    """

    seed: int = 0
    device_losses: tuple = ()
    straggler: Optional[StragglerFault] = None
    aborts: tuple = ()
    #: typed TransferTimeout when one DMA's end-to-end latency exceeds
    #: this (straggler-injected transfers are the usual trigger)
    transfer_timeout_seconds: Optional[float] = None
    #: fleet-scope: whole-backend deaths (:class:`ServerLossFault`)
    server_losses: tuple = ()
    #: fleet-scope: backend stall windows (:class:`ServerStallFault`)
    server_stalls: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "device_losses", tuple(self.device_losses))
        object.__setattr__(self, "aborts", tuple(self.aborts))
        object.__setattr__(self, "server_losses", tuple(self.server_losses))
        object.__setattr__(self, "server_stalls", tuple(self.server_stalls))
        if (
            self.transfer_timeout_seconds is not None
            and self.transfer_timeout_seconds <= 0
        ):
            raise ValueError("transfer_timeout_seconds must be positive")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry contract for retryable failures.

    ``max_attempts`` counts *total* attempts including the first; a
    retry re-enters the admission queue at once, like any queued
    session.  A retry that lost a GPU always falls back to a CPU-only
    placement (byte-identical rows by construction);
    ``fallback_cpu_workers`` is the CPU dop substituted when the
    degraded placement would otherwise have no compute units at all.
    """

    max_attempts: int = 3
    fallback_cpu_workers: int = 4

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.fallback_cpu_workers < 1:
            raise ValueError("fallback_cpu_workers must be >= 1")


class FaultInjector:
    """Arms one :class:`FaultPlan` against one simulated server.

    The scheduler owns the wiring: it installs :attr:`abort_running`
    (how a spurious abort reaches a driver process), forwards
    :meth:`straggler_factor`/:attr:`transfer_timeout` into each query's
    mem-move, calls :meth:`on_phase_boundary` first thing in its one
    phase-boundary hook, and :meth:`arm` at the start of a drive.
    :meth:`snapshot` feeds the
    :class:`~repro.engine.scheduler.BatchReport` ``faults`` section.
    """

    def __init__(self, sim: Simulator, server: Server, plan: FaultPlan):
        self.sim = sim
        self.server = server
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.counts = {
            "device_losses": 0,
            "stragglers": 0,
            "spurious_aborts": 0,
        }
        #: (simulated time, kind, detail) log of every fired fault
        self.events: list[tuple[float, str, str]] = []
        self._boundaries = 0
        self._armed = False
        self._fired: set[int] = set()
        #: installed by the scheduler: (target name or None, reason) ->
        #: name of the aborted session, or None when nothing was running
        self.abort_running: Optional[
            Callable[[Optional[str], str], Optional[str]]
        ] = None

    @property
    def transfer_timeout(self) -> Optional[float]:
        return self.plan.transfer_timeout_seconds

    def straggler_factor(self) -> float:
        """Latency multiplier for one DMA (the mem-move's hook)."""
        spec = self.plan.straggler
        if spec is None or spec.probability <= 0.0:
            return 1.0
        if self.rng.random() >= spec.probability:
            return 1.0
        self.counts["stragglers"] += 1
        self.events.append((self.sim.now, "straggler", f"x{spec.multiplier:g}"))
        return spec.multiplier

    def arm(self) -> None:
        """Spawn the timed faults' DES processes (idempotent)."""
        if self._armed:
            return
        self._armed = True
        for index, fault in enumerate(self.plan.device_losses):
            if fault.at_seconds is not None:
                self.sim.process(
                    self._timed_loss(index, fault),
                    name=f"chaos:lose-gpu{fault.gpu_id}",
                )
        for number, fault in enumerate(self.plan.aborts):
            self.sim.process(self._timed_abort(fault), name=f"chaos:abort{number}")

    def on_phase_boundary(self) -> None:
        """Scheduler hook: any query crossed one dependency-wave gap."""
        self._boundaries += 1
        for index, fault in enumerate(self.plan.device_losses):
            if (
                fault.at_phase_boundary is not None
                and self._boundaries >= fault.at_phase_boundary
            ):
                self._lose(index, fault)

    def snapshot(self) -> dict[str, Any]:
        """Fired-fault counters plus the event log, for reporting."""
        return {
            **self.counts,
            "events": [
                {"t": t, "kind": kind, "detail": detail}
                for t, kind, detail in self.events
            ],
        }

    # -- internals -------------------------------------------------------

    def _lose(self, index: int, fault: DeviceLossFault) -> None:
        if index in self._fired:
            return
        self._fired.add(index)
        if self.server.fail_device(fault.gpu_id, reason="chaos"):
            self.counts["device_losses"] += 1
            self.events.append((self.sim.now, "device_loss", f"gpu{fault.gpu_id}"))

    def _timed_loss(self, index: int, fault: DeviceLossFault):
        yield self.sim.timeout(max(0.0, fault.at_seconds - self.sim.now))
        self._lose(index, fault)

    def _timed_abort(self, fault: SpuriousAbortFault):
        yield self.sim.timeout(max(0.0, fault.at_seconds - self.sim.now))
        if self.abort_running is None:
            return
        victim = self.abort_running(fault.target, "chaos: spurious abort")
        if victim is not None:
            self.counts["spurious_aborts"] += 1
            self.events.append((self.sim.now, "spurious_abort", victim))
