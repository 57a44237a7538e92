"""Multi-tenant isolation: tenants, quotas, rate limits, weighted fairness.

"Millions of users" means *tenants*, not just queries: one tenant's
burst must not starve another tenant's SLA, evict everyone else's
compiled pipelines, or colonise the admission budget.  This module holds
the tenant-facing configuration and the mechanisms the
:class:`~repro.engine.scheduler.EngineServer` layers over its existing
QoS ladder:

* :class:`Tenant` — the per-tenant contract: a **weight** (its share of
  admission service under contention), optional **compute/memory quota
  fractions** (hard caps on the slice of the server's admission budget
  the tenant's in-flight queries may hold), and an optional
  **token-bucket rate limit** (submissions beyond the burst are shed
  with a ``retry_after`` hint instead of queueing).
* :class:`TokenBucket` — the deterministic (simulated-time) limiter
  behind :attr:`Tenant.rate_limit`.
* :class:`DeficitRoundRobin` — weighted-fair *ordering* of the admission
  queue across per-tenant sub-queues.  Classic DRR: each tenant holds a
  deficit counter, a round replenishes every backlogged tenant by its
  weight, and serving a session spends one unit.  The scheduler layers
  this *under* the QoS ladder: among deficit-eligible tenants the one
  with the highest-priority head is served first, so ``interactive``
  traffic still beats ``batch`` across tenant boundaries and fairness
  arbitrates within a priority band.

Quota fractions are enforced through per-tenant
:meth:`~repro.engine.scheduler.ResourceBudget.quota` slices of the
server budget, sized by :func:`quota_capacities`: compute dimensions
(cores, GPU units, and the PCIe/QPI stream windows) scale by
``compute_quota``, memory dimensions (DRAM/HBM bytes) by
``memory_quota`` — the same compute/memory split the scheduler's
preemption accounting uses, so a paused query's tenant keeps exactly its
memory share charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

__all__ = [
    "Tenant",
    "RateLimit",
    "TokenBucket",
    "TenantState",
    "DeficitRoundRobin",
    "COMPUTE_DIMENSIONS",
    "MEMORY_DIMENSIONS",
    "quota_capacities",
]

#: budget dimensions scaled by Tenant.compute_quota — the same set a
#: paused query releases (see scheduler._compute_share)
COMPUTE_DIMENSIONS = ("cpu_cores", "gpu_units", "pcie_bytes", "qpi_bytes")
#: budget dimensions scaled by Tenant.memory_quota — the share a paused
#: query keeps charged for its resident operator state
MEMORY_DIMENSIONS = ("dram_bytes", "hbm_bytes")


@dataclass(frozen=True)
class RateLimit:
    """Token-bucket submission limiter for one tenant.

    ``rate_qps`` tokens accrue per simulated second up to ``burst``
    tokens banked; each submission spends one.  A submission finding no
    whole token is **shed** with a ``retry_after`` hint (the simulated
    seconds until a token will exist) rather than queued — overload
    pushback belongs at the edge, before a session occupies queue space.
    """

    rate_qps: float
    burst: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        if self.burst < 1:
            raise ValueError(
                "burst must be >= 1 (a bucket that can never "
                "hold a whole token admits nothing)"
            )


class TokenBucket:
    """Deterministic token bucket over simulated time.

    Starts full (a fresh tenant may burst immediately).  ``take``
    returns ``None`` on success or the ``retry_after`` in seconds — the
    time until the bucket will next hold a whole token.
    """

    #: float slack so a token refilled at exactly t is spendable at t
    _EPS = 1e-9

    def __init__(self, limit: RateLimit, now: float = 0.0) -> None:
        self.limit = limit
        self.tokens = float(limit.burst)
        self._last = now

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(
                float(self.limit.burst),
                self.tokens + (now - self._last) * self.limit.rate_qps,
            )
        self._last = now

    def take(self, now: float) -> Optional[float]:
        """Spend one token, or return the retry_after hint in seconds."""
        self._refill(now)
        if self.tokens >= 1.0 - self._EPS:
            self.tokens -= 1.0
            return None
        return (1.0 - self.tokens) / self.limit.rate_qps


@dataclass(frozen=True)
class Tenant:
    """Configuration of one tenant sharing an :class:`EngineServer`.

    ``weight`` sets the tenant's share of admission service under
    contention (deficit round-robin: a weight-2 tenant is served twice
    as often as a weight-1 peer when both are backlogged).
    ``compute_quota``/``memory_quota`` are fractions of the server
    budget's compute/memory dimensions the tenant's *admitted* queries
    may hold at once — a saturating tenant is capped at that slice no
    matter how fast it submits.  ``rate_limit`` sheds excess submissions
    at the edge with a ``retry_after`` hint.
    """

    name: str
    weight: float = 1.0
    #: fraction of the budget's compute dimensions (cores, GPU units,
    #: PCIe/QPI stream windows) this tenant may hold; None = uncapped
    compute_quota: Optional[float] = None
    #: fraction of the budget's memory dimensions (DRAM/HBM bytes);
    #: None = uncapped
    memory_quota: Optional[float] = None
    rate_limit: Optional[RateLimit] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        for label in ("compute_quota", "memory_quota"):
            quota = getattr(self, label)
            if quota is not None and not 0.0 < quota <= 1.0:
                raise ValueError(f"{label} must be in (0, 1] (or None)")

    @property
    def capped(self) -> bool:
        return self.compute_quota is not None or self.memory_quota is not None


def quota_capacities(tenant: Tenant, capacity: Mapping[str, float]) -> dict[str, float]:
    """Per-tenant budget capacities: the server capacities scaled by the
    tenant's quota fractions (uncapped dimensions stay unlimited — a
    memory-only quota must not cap compute at the *server* capacity and
    thereby double-track the global budget)."""
    out: dict[str, float] = {}
    for dim in COMPUTE_DIMENSIONS:
        if tenant.compute_quota is not None and math.isfinite(capacity[dim]):
            out[dim] = capacity[dim] * tenant.compute_quota
    for dim in MEMORY_DIMENSIONS:
        if tenant.memory_quota is not None and math.isfinite(capacity[dim]):
            out[dim] = capacity[dim] * tenant.memory_quota
    return out


@dataclass
class TenantState:
    """Runtime per-tenant bookkeeping owned by the scheduler."""

    tenant: Tenant
    #: the ResourceBudget this tenant's sessions are charged through: a
    #: quota slice of the server budget, or the server budget itself for
    #: an uncapped tenant (the scheduler supplies it — tenancy.py stays
    #: import-independent of the scheduler module)
    budget: Optional[object] = None
    bucket: Optional[TokenBucket] = None
    #: lifetime submissions (the drive rollup skips a tenant that never
    #: saw traffic)
    submitted: int = 0

    @property
    def name(self) -> str:
        return self.tenant.name


class DeficitRoundRobin:
    """Weighted-fair ordering across per-tenant admission queues.

    Persistent deficits record how far each tenant has been served ahead
    of (negative) or behind (positive) its weighted share.  The
    scheduler calls :meth:`merge` to order the waiting sessions —
    a computation over a copy of the deficits — and
    :meth:`charge` when a session is actually admitted, which spends one
    unit and replenishes every still-backlogged tenant by its weight
    until someone is eligible again (so deficits stay bounded instead of
    drifting with the admission history).  A tenant with no backlog
    forfeits its deficit (classic DRR: idle tenants bank no credit).
    """

    #: deficit at or above this admits one session
    _ELIGIBLE = 1.0 - 1e-9
    #: debt floor: a tenant served out-of-band (the QoS ladder overrides
    #: the weights) is "behind" by at most one quantum — without the cap
    #: every priority-driven admission would push its deficit further
    #: negative and later lock it out for as many rounds, turning
    #: fairness into long-term punishment
    _MAX_DEBT = 1.0

    def __init__(self) -> None:
        self._deficits: dict[str, float] = {}

    def deficit(self, name: str) -> float:
        return self._deficits.get(name, 0.0)

    def _drop_idle(self, backlogged: Sequence[str]) -> None:
        for name in list(self._deficits):
            if name not in backlogged:
                del self._deficits[name]

    def charge(self, name: str, backlog_weights: Mapping[str, float]) -> None:
        """Account one actual admission from ``name``; ``backlog_weights``
        maps the tenants *still* holding waiting sessions to weights."""
        self._drop_idle([name, *backlog_weights])
        self._deficits[name] = max(self.deficit(name) - 1.0, -self._MAX_DEBT)
        if not backlog_weights:
            return
        while all(self.deficit(n) < self._ELIGIBLE for n in backlog_weights):
            for n, weight in backlog_weights.items():
                self._deficits[n] = self.deficit(n) + weight

    def merge(
        self,
        queues: Mapping[str, Sequence],
        weights: Mapping[str, float],
        order: Iterable[str],
        priority_of: Callable[[object], int],
    ) -> Iterator:
        """Merge per-tenant queues (each already in admission order) into
        one weighted-fair sequence, lazily: a caller that reads the head
        pays for the head.

        At every step the deficit-eligible tenant whose *head* session
        has the highest priority is served (registration order breaks
        ties), so the QoS ladder stays strict across tenants and DRR
        arbitrates within a priority band.  Idle tenants forfeit their
        deficit when this is *called*, consumed or not; beyond that it
        is pure — it works on a copy of the deficits, the persistent
        state moves only through :meth:`charge`.  The queues must not
        change while the result is being read.
        """
        backlogged = [name for name in order if queues.get(name)]
        self._drop_idle(backlogged)
        deficits = {name: self.deficit(name) for name in backlogged}
        return self._merged(backlogged, deficits, queues, weights, priority_of)

    def _merged(
        self,
        remaining: list[str],
        deficits: dict[str, float],
        queues: Mapping[str, Sequence],
        weights: Mapping[str, float],
        priority_of: Callable[[object], int],
    ) -> Iterator:
        cursor = dict.fromkeys(remaining, 0)
        while remaining:
            best: Optional[str] = None
            best_priority = 0
            for name in remaining:
                if deficits[name] >= self._ELIGIBLE:
                    priority = priority_of(queues[name][cursor[name]])
                    # strictly higher only: remaining keeps registration
                    # order, so the earlier-registered tenant wins a tie
                    if best is None or priority > best_priority:
                        best, best_priority = name, priority
            if best is None:
                for name in remaining:
                    deficits[name] += weights[name]
                continue
            yield queues[best][cursor[best]]
            cursor[best] += 1
            deficits[best] -= 1.0
            if cursor[best] == len(queues[best]):
                remaining.remove(best)

    def interleave(
        self,
        queues: Mapping[str, Sequence],
        weights: Mapping[str, float],
        order: Iterable[str],
        priority_of: Callable[[object], int],
    ) -> list:
        """:meth:`merge`, read to the end."""
        return list(self.merge(queues, weights, order, priority_of))
