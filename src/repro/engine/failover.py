"""Typed failover primitives for the engine fleet.

The fleet's robustness story is built from three small, independently
testable pieces (wired together by
:class:`~repro.engine.fleet.EngineFleet`):

* :class:`CircuitBreaker` — a per-backend closed/open/half-open state
  machine.  Dispatch failures and failed health probes open it; after
  :attr:`BreakerPolicy.open_seconds` the next probe runs half-open, and
  its outcome either closes the breaker or re-opens it.  A breaker
  forced open (server loss) never half-opens again.
* :class:`FallbackChain` — the typed attempt log for one shard query.
  Every replica dispatch is a *hop*: :meth:`FallbackChain.begin_attempt`
  opens it, :meth:`FallbackChain.resolve` records the typed outcome and
  elapsed simulated time.  A hop that is opened but never resolved is a
  bug (RP007, the analyzer's failover-discipline rule, flags the
  pattern statically; :meth:`FallbackChain.assert_closed` catches it at
  runtime).
* :class:`FleetExhaustedError` — the terminal, typed failure when no
  replica survives the chain; it carries the full attempt log so a
  report can show exactly which replicas failed how.

Everything here is clock-agnostic: state machines take a ``clock``
callable (the fleet passes ``lambda: sim.now``) so the breaker unit
tests need no simulator at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .faults import ServerLostError, ServerStallTimeout

__all__ = [
    "FAILOVER_CLASSES",
    "AttemptOutcome",
    "BreakerPolicy",
    "CircuitBreaker",
    "FailoverError",
    "FailoverPolicy",
    "FallbackChain",
    "FleetExhaustedError",
    "ServerLostError",
    "ServerStallTimeout",
]

#: hop outcomes worth re-dispatching to another replica — the
#: fleet-level analogue of the scheduler's RETRYABLE_CLASSES.  ``fatal``
#: is deliberately absent: a plan bug fails identically on every
#: replica, so failing over only multiplies the damage.  ``shed``
#: (a replica's admission refused the dispatch) fails over too: another
#: replica may have queue room.
FAILOVER_CLASSES = frozenset(
    {
        "server_lost",
        "stall_timeout",
        "aborted",
        "device_lost",
        "transfer_timeout",
        "shed",
    }
)

Clock = Callable[[], float]


class FailoverError(RuntimeError):
    """Invalid use of the failover machinery (double resolve, ...)."""


class FleetExhaustedError(RuntimeError):
    """No replica survived a shard query's fallback chain.

    Carries the full typed attempt log; the message renders one
    ``replica=outcome`` entry per hop so a failed drive's report shows
    the whole failover story inline.
    """

    def __init__(self, shard: object, attempts: tuple["AttemptOutcome", ...]):
        trail = (
            ", ".join(f"{a.replica}={a.outcome}" for a in attempts)
            or "no replica was dispatchable"
        )
        super().__init__(f"shard {shard!r} exhausted its replicas: {trail}")
        self.shard = shard
        self.attempts = attempts


@dataclass(frozen=True)
class AttemptOutcome:
    """One resolved hop of a :class:`FallbackChain`."""

    #: backend the hop was dispatched to (``"srv2"``)
    replica: str
    #: typed outcome: ``ok`` / ``hedge_loser`` / a failure class
    #: (``server_lost``, ``stall_timeout``, ``shed``, ...)
    outcome: str
    #: simulated seconds from dispatch to resolution
    elapsed: float
    #: simulated time the hop was dispatched
    started: float


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs of the per-backend circuit breaker.

    ``failure_threshold`` consecutive failures (dispatch outcomes or
    probes) open the breaker; after ``open_seconds`` of simulated time
    the next probe runs half-open — success closes the breaker, failure
    re-opens it for another ``open_seconds``.
    """

    failure_threshold: int = 2
    open_seconds: float = 0.005

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.open_seconds <= 0:
            raise ValueError("open_seconds must be positive")


#: breaker states (also the value of the fleet's breaker-state gauge)
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: gauge encoding: 0 healthy, 1 probing, 2 refusing traffic
BREAKER_STATE_VALUES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


class CircuitBreaker:
    """Closed/open/half-open breaker over an injected clock.

    * **closed** — traffic flows; ``failure_threshold`` consecutive
      failures trip it open (any success resets the streak).
    * **open** — traffic is refused.  Once ``open_seconds`` have passed,
      the next outcome check transitions to half-open.
    * **half-open** — a trial is allowed through; its success closes the
      breaker, its failure re-opens it (restarting the open window).

    :meth:`force_open` (server loss) latches the breaker open: it never
    half-opens again, so a dead backend is never probed back in.
    """

    def __init__(self, policy: BreakerPolicy, clock: Clock):
        self.policy = policy
        self.clock = clock
        self._state = CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._latched = False
        #: (simulated time, new state) transition log, for reports
        self.transitions: list[tuple[float, str]] = []

    @property
    def state(self) -> str:
        """Current state.  A read: an open breaker whose window has
        passed reads half-open, and the step itself is taken (and
        logged) by the next :meth:`allow` / ``record_*`` call."""
        return HALF_OPEN if self._window_passed() else self._state

    def allow(self) -> bool:
        """May traffic (a dispatch or a probe) be sent right now?"""
        return self._step() != OPEN

    def record_success(self) -> None:
        if self._step() == HALF_OPEN:
            self._transition(CLOSED)
        else:
            self._failures = 0

    def record_failure(self) -> None:
        if self._latched:
            return
        if self._step() == HALF_OPEN:
            self._transition(OPEN)
            return
        if self._state == OPEN:
            return
        self._failures += 1
        if self._failures >= self.policy.failure_threshold:
            self._transition(OPEN)

    def force_open(self) -> None:
        """Latch the breaker open permanently (the backend is gone)."""
        if self._state != OPEN:
            self._transition(OPEN)
        self._latched = True

    # -- internals -------------------------------------------------------

    def _window_passed(self) -> bool:
        if self._state != OPEN or self._latched:
            return False
        assert self._opened_at is not None
        # 1e-12 absorbs float subtraction noise (0.03 - 0.02 < 0.01)
        return self.clock() - self._opened_at >= self.policy.open_seconds - 1e-12

    def _step(self) -> str:
        """Take the timed open -> half-open step; return the state."""
        if self._window_passed():
            self._transition(HALF_OPEN)
        return self._state

    def _transition(self, state: str) -> None:
        self._state = state
        self.transitions.append((self.clock(), state))
        if state == OPEN:
            self._opened_at = self.clock()
        self._failures = 0


@dataclass(frozen=True)
class FailoverPolicy:
    """Bounded re-dispatch contract for one shard query.

    ``max_attempts`` caps total hops (hedges included); the k-th
    failover backs off ``k * backoff_seconds`` of simulated time before
    re-dispatching.  ``dispatch_timeout_seconds`` arms the dispatcher's
    watchdog: a dispatch not resolved within it is cancelled with a
    typed :class:`ServerStallTimeout` and failed over (None: wait
    indefinitely — stalls then only surface through probes).
    ``hedge_delay_seconds`` arms hedged dispatch: a hop still
    unresolved after the delay launches a second dispatch on the next
    replica, first response wins, the loser is cancelled so its budget
    and staging credits release (None: hedging off).
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    dispatch_timeout_seconds: Optional[float] = None
    hedge_delay_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if (
            self.dispatch_timeout_seconds is not None
            and self.dispatch_timeout_seconds <= 0
        ):
            raise ValueError("dispatch_timeout_seconds must be positive")
        if self.hedge_delay_seconds is not None and self.hedge_delay_seconds <= 0:
            raise ValueError("hedge_delay_seconds must be positive")


class FallbackChain:
    """The typed attempt log for one shard query's replica dispatches.

    Usage discipline (enforced statically by RP007): every
    :meth:`begin_attempt` must be paired with a :meth:`resolve` on both
    the success and the failure path — a dropped hop would silently
    erase a failover from the record the acceptance contract audits.
    """

    def __init__(self, shard: object, max_attempts: int, clock: Clock):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.shard = shard
        self.max_attempts = max_attempts
        self.clock = clock
        self._log: list[AttemptOutcome] = []
        #: open hops: id -> (replica, dispatch time)
        self._open: dict[int, tuple[str, float]] = {}
        self._next_hop = 0

    @property
    def attempts(self) -> tuple[AttemptOutcome, ...]:
        """Resolved hops, in resolution order."""
        return tuple(self._log)

    @property
    def exhausted(self) -> bool:
        """Have ``max_attempts`` hops been opened (resolved or in flight)?"""
        return len(self._log) + len(self._open) >= self.max_attempts

    def begin_attempt(self, replica: str) -> int:
        """Open a hop against ``replica``; returns the hop handle."""
        if self.exhausted:
            raise FailoverError(
                f"begin_attempt past max_attempts={self.max_attempts} "
                f"on shard {self.shard!r}"
            )
        hop = self._next_hop
        self._next_hop += 1
        self._open[hop] = (replica, self.clock())
        return hop

    def resolve(self, hop: int, outcome: str) -> AttemptOutcome:
        """Record a hop's typed outcome; returns the log entry."""
        try:
            replica, started = self._open.pop(hop)
        except KeyError:
            raise FailoverError(
                f"hop {hop} resolved twice (or never begun) on shard "
                f"{self.shard!r}"
            ) from None
        record = AttemptOutcome(
            replica=replica,
            outcome=outcome,
            elapsed=self.clock() - started,
            started=started,
        )
        self._log.append(record)
        return record

    def assert_closed(self) -> None:
        """Runtime backstop for RP007: no hop may be left unresolved."""
        if self._open:
            dangling = ", ".join(
                f"{replica} (hop {hop})"
                for hop, (replica, _) in sorted(self._open.items())
            )
            raise FailoverError(
                f"unresolved failover hop(s) on shard {self.shard!r}: "
                f"{dangling}"
            )

    def exhaust(self) -> FleetExhaustedError:
        """The terminal error carrying this chain's full attempt log."""
        return FleetExhaustedError(self.shard, self.attempts)
