"""A resilient fleet of engine servers behind a health-checked dispatcher.

One :class:`~repro.engine.scheduler.EngineServer` owns the whole dataset
and dies with it.  This module is the cluster-scale layer on top: an
:class:`EngineFleet` owns N backends **on one shared simulator clock**
(each a full :class:`~repro.engine.proteus.Proteus` +
:class:`~repro.engine.scheduler.EngineServer`), gives each a *shard* of
the fact table (contiguous range shards, R-way replicated across
backends; dimension tables replicated in full), and fronts them with a
dispatcher that:

* routes each shard query to a replica by **locality + live load**
  (replicas of the shard only, circuit-breaker-allowed first, then
  least in-flight);
* runs **scatter-gather** for multi-shard queries: one DES process per
  shard, partial results merged as the single-server collector merges
  its workers': scalars by :func:`~repro.engine.collect.merge_scalar`,
  each shard's group rows folded into one
  :class:`~repro.jit.pipeline.GroupTable` (SSB aggregates are exact
  integer sums in float64, so the shard re-association is
  byte-identical to a single-server run);
* survives **server-level chaos**: seeded
  :class:`~repro.engine.faults.ServerLossFault` /
  :class:`~repro.engine.faults.ServerStallFault` entries on the
  :class:`~repro.engine.faults.FaultPlan` kill or partition whole
  backends mid-drive.  Periodic DES health probes drive a per-backend
  :class:`~repro.engine.failover.CircuitBreaker`; every failed shard
  dispatch is re-routed to the next live replica through a typed
  :class:`~repro.engine.failover.FallbackChain` (bounded attempts,
  per-hop ``(replica, outcome, elapsed)`` log,
  :class:`~repro.engine.failover.FleetExhaustedError` when no replica
  survives);
* optionally **hedges** slow dispatches: after ``hedge_delay_seconds``
  an unresolved hop launches a second dispatch on the next replica,
  first response wins, and the loser is *cancelled* through
  :meth:`EngineServer.cancel` — the driver's ``finally`` (and, through
  it, ``abort_outstanding``) releases its budget and staging credits,
  so hedging never leaks resources.

Failure-model fine print: a **lost** server latches its breaker open
and every in-flight session on it is cancelled with a typed
:class:`~repro.engine.faults.ServerLostError`.  A **stalled** server
models a control-plane partition: health probes fail for the window
(opening the breaker) and a dispatch entering the window hangs at the
fleet edge until the window lifts — with a ``dispatch_timeout_seconds``
watchdog armed, the hang is cancelled as a typed
:class:`~repro.engine.faults.ServerStallTimeout` and failed over
instead.  After the window, the next probe runs the breaker's
half-open trial and closes it: the recovery path is probe-driven, not
time-healed.

Like the server's session (see the tables in
:mod:`~repro.engine.scheduler`), a fleet query and a failover hop each
have one life cycle with **one** closing site:

=================  ==========================  ==========================
life cycle         opened by                   closed by (the only code)
=================  ==========================  ==========================
fleet query        ``submit`` (``pending``)    ``EngineFleet._finish`` ->
                                               ``done`` | ``failed``
failover hop       ``_launch`` (parked at a    ``EngineFleet._close_hop``
(``_Hop``)         partition or submitted by   with a typed outcome
                   ``_activate_entry``)
=================  ==========================  ==========================

``_finish`` sets the typed status, the error and its class, the finish
time and feeds ``repro_fleet_queries_total`` once; it is reached from
the query's coordinator and from :meth:`EngineFleet.run`'s audit of a
coordinator that stalled.  ``_close_hop`` writes the hop's typed entry
in the :class:`~repro.engine.failover.FallbackChain` log, gives back the
backend's in-flight slot, tells its breaker (``ok`` is a success; only
``server_lost`` / ``stall_timeout`` indict the server) and feeds the
hedge win/loss counter; the dispatcher calls it for the winner, for each
hedge loser (after cancelling it), for each failed session and for a
dispatch the watchdog fails while it is still parked on a partition.

The fleet keeps its own ``repro_fleet_*`` metric families (dispatches,
failovers by outcome, hedge wins/losses, per-server breaker state,
terminal query statuses, server losses) on a dedicated registry.  Each
site calls its family inline (``self._m_failovers.inc(outcome=…)``),
and the breaker gauge is sampled when the surface is read — by
:meth:`EngineFleet.metrics_text` and at the end of :meth:`EngineFleet.run`
— so, as on the per-server surface, observing a drive schedules no
event and moves no simulated time.  (Reading a breaker's ``state`` is
pure too: only a dispatch or a probe takes its open -> half-open step.)
:attr:`FleetReport.events` is not a
second log kept in step by hand: it is rebuilt at report time from the
stall windows, the fired losses and every breaker's own
:attr:`~repro.engine.failover.CircuitBreaker.transitions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..algebra.logical import LogicalGroupBy, LogicalReduce, Plan
from ..hardware.sim import Simulator
from ..jit.pipeline import GroupTable
from ..storage.column import Column
from ..storage.table import Table
from .collect import order_rows, scalar_result
from .config import ExecutionConfig
from .failover import (
    BREAKER_STATE_VALUES,
    FAILOVER_CLASSES,
    BreakerPolicy,
    CircuitBreaker,
    FailoverPolicy,
    FallbackChain,
    FleetExhaustedError,
)
from .faults import (
    FaultPlan,
    ServerLostError,
    ServerStallTimeout,
    classify_failure,
)
from .metrics import MetricsRegistry
from .proteus import Proteus
from .results import QueryResult
from .scheduler import (
    AdmissionError,
    BatchReport,
    EngineServer,
    SchedulerError,
    drive_window,
)

__all__ = [
    "EngineFleet",
    "FleetQuery",
    "FleetReport",
    "FleetServer",
    "ShardMap",
    "FailoverPolicy",
    "BreakerPolicy",
    "FleetExhaustedError",
]

#: hop outcomes that indict the *server* (and so trip its breaker), as
#: opposed to query-level outcomes (shed, aborted) a healthy server
#: produces under load
_BREAKER_CLASSES = frozenset({"server_lost", "stall_timeout"})


@dataclass(frozen=True)
class ShardMap:
    """Contiguous range shards of the fact table, replicated R ways.

    Backend ``b`` holds shard ``b % num_shards``, so with
    ``num_servers=4, num_shards=2`` shard 0 lives on backends 0 and 2
    and shard 1 on backends 1 and 3.  Range (not hash) sharding keeps
    shard-order concatenation equal to table order, which is what makes
    un-aggregated LIMIT results byte-identical to a single server.
    """

    num_servers: int
    num_shards: int

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if not 1 <= self.num_shards <= self.num_servers:
            raise ValueError(
                f"num_shards must be in [1, num_servers]; got "
                f"{self.num_shards} shards over {self.num_servers} servers"
            )

    @classmethod
    def with_replication(cls, num_servers: int, replication: int) -> "ShardMap":
        """R-way replication: every shard lands on >= R backends."""
        if not 1 <= replication <= num_servers:
            raise ValueError(
                f"replication must be in [1, num_servers]; got "
                f"{replication}-way over {num_servers} servers"
            )
        return cls(num_servers, num_servers // replication)

    def shard_of_server(self, server_index: int) -> int:
        return server_index % self.num_shards

    def replicas(self, shard: int) -> tuple[int, ...]:
        """Backend indices holding ``shard``, ascending."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.num_shards})")
        return tuple(b for b in range(self.num_servers) if b % self.num_shards == shard)

    def row_range(self, shard: int, num_rows: int) -> tuple[int, int]:
        """Half-open row range of ``shard`` in a ``num_rows`` fact table."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.num_shards})")
        lo = num_rows * shard // self.num_shards
        hi = num_rows * (shard + 1) // self.num_shards
        return lo, hi


@dataclass
class FleetServer:
    """One backend of the fleet: a full engine plus fleet-side state."""

    index: int
    name: str
    shard: int
    server: EngineServer
    breaker: CircuitBreaker
    #: False once a ServerLossFault killed this backend
    alive: bool = True
    #: (start, end) control-plane partition windows, simulated seconds
    stall_windows: tuple[tuple[float, float], ...] = ()
    #: fleet dispatches currently outstanding on this backend (the
    #: dispatcher's live-load signal)
    inflight: int = 0
    #: fleet dispatches ever routed here
    dispatches: int = 0

    def stall_end(self, now: float) -> Optional[float]:
        """End of the stall window covering ``now``, or None."""
        for start, end in self.stall_windows:
            if start <= now < end:
                return end
        return None


@dataclass
class FleetQuery:
    """One query's life cycle across the fleet."""

    query_id: int
    name: str
    plan: Plan
    config: ExecutionConfig
    #: 'pending' -> 'done' | 'failed' (fleet queries are never shed at
    #: the fleet edge — a replica's shed is a failover hop outcome)
    status: str = "pending"
    submit_time: float = 0.0
    finish_time: Optional[float] = None
    result: Optional[QueryResult] = None
    error: Optional[BaseException] = None
    #: typed classification of the terminal failure (None unless failed)
    error_class: Optional[str] = None
    #: shard -> FallbackChain: the typed per-hop attempt log
    chains: dict[Any, FallbackChain] = field(default_factory=dict)
    #: failed hops that were re-dispatched to another replica
    failovers: int = 0
    #: hedged dispatches whose second request won
    hedge_wins: int = 0

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    @property
    def latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    def attempts(self) -> list:
        """Every resolved hop across all shards, in shard order."""
        out = []
        for shard in sorted(self.chains, key=lambda s: (s is None, s)):
            out.extend(self.chains[shard].attempts)
        return out


@dataclass
class _Hop:
    """One dispatched (or partition-parked) hop of a shard query: what
    :meth:`EngineFleet._launch` opens and ``_close_hop`` resolves."""

    #: the :class:`~repro.engine.failover.FallbackChain` hop handle
    hop: int
    fs: FleetServer
    #: ``"primary"`` or ``"hedge"``
    kind: str
    #: when the dispatch may reach the backend: now, or the end of the
    #: partition window it is parked on
    ready_at: float
    #: the backend session (a ``_FailedEdge`` for an edge refusal);
    #: None while the dispatch is parked at the fleet edge
    session: Any = None


@dataclass
class FleetReport:
    """Aggregate outcome of one :meth:`EngineFleet.run` drive."""

    queries: list[FleetQuery]
    makespan: float
    #: per-backend BatchReport, keyed by server name
    server_reports: dict[str, BatchReport]
    #: fleet dispatches per server name (lifetime)
    dispatches: dict[str, int]
    #: failed hops re-dispatched, by typed outcome
    failovers_by_outcome: dict[str, int]
    hedge_wins: int
    server_losses: int
    #: breaker state per server at end of drive
    breaker_states: dict[str, str]
    #: backends that finished the drive dead
    lost_servers: list[str]
    #: fleet-scope chaos log in simulated-time order: ``server_stall``
    #: windows, ``server_loss`` es and every breaker flip
    #: (``breaker_open`` / ``breaker_half_open`` / ``breaker_closed``)
    events: list[dict]
    #: repro_fleet_* metrics snapshot at end of drive
    metrics: dict = field(default_factory=dict)

    @property
    def completed(self) -> list[FleetQuery]:
        return [q for q in self.queries if q.status == "done"]

    @property
    def failed(self) -> list[FleetQuery]:
        return [q for q in self.queries if q.status == "failed"]

    @property
    def failovers(self) -> int:
        return sum(self.failovers_by_outcome.values())

    def summary(self) -> str:
        lines = [
            f"fleet: {len(self.completed)} done, {len(self.failed)} failed "
            f"in {self.makespan:.4f}s simulated; {self.failovers} "
            f"failover(s), {self.hedge_wins} hedge win(s), "
            f"{self.server_losses} server loss(es)"
        ]
        if self.failovers_by_outcome:
            by_outcome = ", ".join(
                f"{outcome} x{count}"
                for outcome, count in sorted(self.failovers_by_outcome.items())
            )
            lines.append(f"  failovers by outcome: {by_outcome}")
        for name in sorted(self.dispatches):
            state = self.breaker_states.get(name, "?")
            mark = "lost" if name in self.lost_servers else "up"
            lines.append(
                f"  {name:6s} {mark:4s} breaker={state:9s} "
                f"dispatches={self.dispatches[name]}"
            )
        for query in self.queries:
            mark = "ok" if query.status == "done" else "failed"
            lat = f"{query.latency:.4f}s" if query.latency is not None else "-"
            trail = "; ".join(f"{a.replica}={a.outcome}" for a in query.attempts())
            extra = f" [{query.error_class}]" if query.status == "failed" else ""
            lines.append(f"  {query.name:12s} {mark:7s} latency={lat}{extra} ({trail})")
        return "\n".join(lines)


class EngineFleet:
    """N sharded/replicated engine servers behind a failover dispatcher.

    Construction wires ``num_servers`` full engines onto **one** shared
    :class:`~repro.hardware.sim.Simulator`; :meth:`load_tables` registers
    the dataset (fact table range-sharded via :class:`ShardMap`,
    everything else replicated); :meth:`submit` queues fleet queries and
    :meth:`run` drives them all: scatter per shard, failover per the
    :class:`~repro.engine.failover.FailoverPolicy`, gather + merge, one
    :class:`FleetReport`.

    ``fault_plan`` arms the *fleet-scope* entries
    (:attr:`~repro.engine.faults.FaultPlan.server_losses` /
    :attr:`~repro.engine.faults.FaultPlan.server_stalls`); device-level
    chaos inside a single backend is configured per server via
    ``server_kwargs={"fault_plan": ...}`` exactly as on a standalone
    :class:`~repro.engine.scheduler.EngineServer`.  Note that hedging
    composes poorly with a backend ``retry_policy``: a cancelled hedge
    loser classifies as a retryable ``aborted`` failure and the backend
    may locally re-run work the fleet already has an answer for —
    fleet failover supersedes local retry, so leave the backend policy
    off in fleet deployments.
    """

    def __init__(
        self,
        num_servers: int = 4,
        *,
        replication: int = 2,
        failover: Optional[FailoverPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        probe_interval_seconds: float = 0.0025,
        fault_plan: Optional[FaultPlan] = None,
        server_kwargs: Optional[dict] = None,
        **engine_kwargs: Any,
    ):
        if probe_interval_seconds <= 0:
            raise ValueError("probe_interval_seconds must be positive")
        self.sim = Simulator()
        self._clock = lambda: self.sim.now
        self.shard_map = ShardMap.with_replication(num_servers, replication)
        self.failover = failover or FailoverPolicy()
        self.breaker_policy = breaker or BreakerPolicy()
        self.probe_interval_seconds = probe_interval_seconds
        self.fault_plan = fault_plan
        self._servers: list[FleetServer] = []
        for index in range(num_servers):
            engine = Proteus(sim=self.sim, **engine_kwargs)
            server = EngineServer(engine=engine, **(server_kwargs or {}))
            self._servers.append(
                FleetServer(
                    index=index,
                    name=f"srv{index}",
                    shard=self.shard_map.shard_of_server(index),
                    server=server,
                    breaker=CircuitBreaker(self.breaker_policy, self._clock),
                )
            )
        self._by_name = {fs.name: fs for fs in self._servers}
        #: fact-table name set by load_tables (None: nothing sharded,
        #: every query is single-shard)
        self._fact: Optional[str] = None
        self._queries: list[FleetQuery] = []
        self._next_id = 0
        #: query id -> its coordinator process, once spawned
        self._spawned: dict[int, Any] = {}
        self._reported: set[int] = set()
        self._armed = False
        self._probe_proc_handle: Optional[Any] = None
        #: one ``server_loss`` event per fired ServerLossFault
        self._losses: list[dict] = []
        self.metrics = MetricsRegistry()
        self._metric_families()
        self._apply_stall_windows()

    @property
    def servers(self) -> list[FleetServer]:
        return list(self._servers)

    def server(self, name: str) -> FleetServer:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown server {name!r}; fleet has {sorted(self._by_name)}"
            ) from None

    # -- metrics -----------------------------------------------------------

    def _metric_families(self) -> None:
        registry = self.metrics
        self._m_dispatches = registry.counter(
            "repro_fleet_dispatches_total",
            "Shard-query dispatches routed to each backend",
            labels=("server",),
        )
        self._m_failovers = registry.counter(
            "repro_fleet_failovers_total",
            "Failed hops re-dispatched to another replica, by typed outcome",
            labels=("outcome",),
        )
        self._m_hedges = registry.counter(
            "repro_fleet_hedges_total",
            "Hedged dispatches by result (win: the hedge answered first)",
            labels=("result",),
        )
        self._m_queries = registry.counter(
            "repro_fleet_queries_total",
            "Fleet queries reaching a terminal status",
            labels=("status",),
        )
        self._m_losses = registry.counter(
            "repro_fleet_server_losses_total",
            "Whole-server losses injected by the chaos tier",
        )
        self._m_breaker = registry.gauge(
            "repro_fleet_breaker_state",
            "Per-backend circuit breaker state "
            "(0=closed, 1=half-open, 2=open)",
            labels=("server",),
        )

    def _sample_gauges(self) -> None:
        for fs in self._servers:
            self._m_breaker.set(BREAKER_STATE_VALUES[fs.breaker.state], server=fs.name)

    def metrics_text(self) -> str:
        """Prometheus text exposition of the fleet metrics surface."""
        self._sample_gauges()
        return self.metrics.render_text()

    # -- data plane --------------------------------------------------------

    def load_tables(
        self,
        tables: "Sequence[Table] | dict[str, Table]",
        fact: Optional[str] = None,
        logical_scales: Optional[dict[str, float]] = None,
    ) -> None:
        """Register the dataset on every backend.

        The ``fact`` table is range-sharded: backend ``b`` registers only
        the rows of shard ``b % num_shards`` (sliced columns share the
        original string dictionaries, so decoded results stay
        byte-identical to the full table).  Every other table — the SSB
        dimensions — is replicated in full on every backend.  ``tables``
        accepts the dict :func:`~repro.ssb.generate_ssb` returns.
        """
        if isinstance(tables, dict):
            tables = list(tables.values())
        if fact is not None and fact not in {t.name for t in tables}:
            raise ValueError(
                f"fact table {fact!r} not among "
                f"{sorted(t.name for t in tables)}"
            )
        self._fact = fact
        for fs in self._servers:
            for table in tables:
                if fact is not None and table.name == fact:
                    fs.server.register(self._shard_table(table, fs.shard))
                else:
                    fs.server.register(table)
            for name, scale in (logical_scales or {}).items():
                fs.server.catalog.set_logical_scale(name, scale)

    def _shard_table(self, table: Table, shard: int) -> Table:
        lo, hi = self.shard_map.row_range(shard, table.num_rows)
        columns = [
            # the slice keeps the ORIGINAL StringDictionary: codes and
            # decoded strings match the unsharded table exactly
            Column(c.name, c.dtype, c.values[lo:hi], dictionary=c.dictionary)
            for c in table.columns.values()
        ]
        return Table(table.name, columns)

    # -- submission --------------------------------------------------------

    def submit(
        self, plan: Plan, config: ExecutionConfig, name: Optional[str] = None
    ) -> FleetQuery:
        """Queue one query for the next :meth:`run` drive."""
        query = FleetQuery(
            query_id=self._next_id,
            name=name or f"fq{self._next_id}",
            plan=plan,
            config=config,
            submit_time=self.sim.now,
        )
        self._next_id += 1
        self._queries.append(query)
        return query

    # -- chaos arming ------------------------------------------------------

    def _apply_stall_windows(self) -> None:
        if self.fault_plan is None:
            return
        for fault in self.fault_plan.server_stalls:
            fs = self.server(fault.server_id)
            window = (fault.at_seconds, fault.at_seconds + fault.duration_seconds)
            fs.stall_windows = (*fs.stall_windows, window)

    def _arm(self) -> None:
        """Spawn the server-loss processes (idempotent, validated)."""
        if self._armed or self.fault_plan is None:
            return
        self._armed = True
        for fault in self.fault_plan.server_losses:
            self.server(fault.server_id)  # raise early on unknown names
            self.sim.process(
                self._loss_proc(fault), name=f"fleet-loss:{fault.server_id}"
            )

    def _loss_proc(self, fault):
        yield self.sim.timeout(fault.at_seconds)
        fs = self.server(fault.server_id)
        if not fs.alive:
            return
        fs.alive = False
        # latch the breaker: a dead backend is never probed back in
        fs.breaker.force_open()
        self._m_losses.inc()
        self._losses.append(
            {"kind": "server_loss", "server": fs.name, "at": self.sim.now}
        )
        # every in-flight session dies with the server, typed; the
        # drivers' finally blocks release budgets and staging credits
        for session in list(fs.server.sessions):
            if not session.finished:
                fs.server.cancel(
                    session,
                    ServerLostError(f"server {fs.name} lost at t={self.sim.now:.6f}s"),
                )

    # -- health probes -----------------------------------------------------

    def _probe_proc(self):
        """Periodic health probe: drives breaker recovery.

        Runs while any coordinator process is alive (so a drained drive
        terminates, and a coordinator that died leaves its query to
        :meth:`run`'s audit); each tick probes every backend.  A probe
        into a stall window fails — consecutive failures open the
        breaker — and the first probe after the window runs the
        half-open trial that closes it again.
        """
        while any(proc.is_alive for proc in self._spawned.values()):
            yield self.sim.timeout(self.probe_interval_seconds)
            for fs in self._servers:
                self._probe(fs)

    def _probe(self, fs: FleetServer) -> None:
        if not fs.alive:
            return  # latched open; nothing to learn from a dead backend
        if fs.stall_end(self.sim.now) is not None:
            fs.breaker.record_failure()
        else:
            fs.breaker.record_success()

    # -- routing -----------------------------------------------------------

    def _route(
        self, shard: Optional[int], exclude: frozenset[int] | set[int] = frozenset()
    ) -> Optional[FleetServer]:
        """Pick the replica for one dispatch, or None when nothing is up.

        Locality first (only replicas of the shard are candidates; a
        ``None`` shard — a dimension-only query — may go anywhere), then
        breaker-allowed backends, then least in-flight load, then lowest
        index for determinism.  When EVERY candidate's breaker refuses,
        the least-loaded candidate is tried anyway — with all breakers
        open, refusing to dispatch would fail queries a half-open trial
        might still serve.
        """
        if shard is None:
            candidates = self._servers
        else:
            candidates = [self._servers[b] for b in self.shard_map.replicas(shard)]
        candidates = [fs for fs in candidates if fs.alive and fs.index not in exclude]
        if not candidates:
            return None
        allowed = [fs for fs in candidates if fs.breaker.allow()]
        pool = allowed or candidates
        return min(pool, key=lambda fs: (fs.inflight, fs.index))

    def _shards_for(self, plan: Plan) -> list[Optional[int]]:
        """Shard fan-out of one plan: every shard when the fact table is
        scanned (any shard's rows may qualify), else a single routed
        dispatch (``None`` = any backend; dimensions are replicated)."""
        if self._fact is None or self.shard_map.num_shards == 1:
            return [None]
        tables = {scan.table for scan in plan.scans()}
        if self._fact in tables:
            return list(range(self.shard_map.num_shards))
        return [None]

    @staticmethod
    def _scatter_plan(plan: Plan) -> Plan:
        """The per-shard plan: ORDER BY / LIMIT are deferred to the
        fleet merge for aggregating plans — a per-shard LIMIT over
        *partial* aggregates could drop a group whose merged value
        belongs in the global top-k.  Un-aggregated plans keep both
        (per-shard top-k then merged top-k is exact under range
        sharding)."""
        if isinstance(plan.root, (LogicalReduce, LogicalGroupBy)) and (
            plan.order or plan.limit is not None
        ):
            return Plan(plan.root)
        return plan

    # -- the drive ---------------------------------------------------------

    def run(self) -> FleetReport:
        """Drive every submitted fleet query to a typed terminal status."""
        for fs in self._servers:
            fs.server.start()
        self._arm()
        fresh = [
            q for q in self._queries
            if q.status == "pending" and q.query_id not in self._spawned
        ]
        for query in fresh:
            self._spawned[query.query_id] = self.sim.process(
                self._query_proc(query), name=f"fleet:{query.name}"
            )
        if fresh and (
            self._probe_proc_handle is None or self._probe_proc_handle.triggered
        ):
            self._probe_proc_handle = self.sim.process(
                self._probe_proc(), name="fleet-probes"
            )
        self.sim.run()
        problems: list[str] = []
        reports: dict[str, BatchReport] = {}
        for fs in self._servers:
            try:
                reports[fs.name] = fs.server.finish_drive()
            except SchedulerError as error:
                # a backend's drive stalled (e.g. it died holding work);
                # its cleanup ran — keep the report and carry on
                problems.append(f"{fs.name}: {error}")
                reports[fs.name] = fs.server.last_report
        if problems:
            # stall cleanup triggered done events; let parked fleet
            # coordinators observe them before we audit terminal states
            self.sim.run()
        for query in self._queries:
            if query.status == "pending" and query.query_id in self._spawned:
                self._finish(
                    query,
                    SchedulerError(
                        f"fleet query {query.name} never reached a terminal "
                        f"state: {'; '.join(problems) or 'coordinator stalled'}"
                    ),
                )
        self._sample_gauges()
        return self._report(reports)

    def _query_proc(self, query: FleetQuery):
        """Coordinator: scatter per shard, gather, merge, finalize."""
        shards = self._shards_for(query.plan)
        results: dict[Optional[int], Any] = {}
        procs = [
            self.sim.process(
                self._shard_proc(query, shard, results),
                name=f"fleet:{query.name}:s{shard}",
            )
            for shard in shards
        ]
        yield self.sim.all_of(procs)
        failure = next(
            (
                results[shard]
                for shard in shards
                if isinstance(results.get(shard), BaseException)
            ),
            None,
        )
        if failure is None:
            try:
                query.result = self._merge(query, shards, results)
            except Exception as error:  # repro: noqa[RP004] _finish types it
                failure = error
        self._finish(query, failure)

    def _finish(
        self, query: FleetQuery, error: Optional[BaseException] = None
    ) -> None:
        """Make a fleet query terminal — the only code that does: typed
        status, finish time and the one ``repro_fleet_queries_total``
        feed, whoever ends it (its coordinator, or :meth:`run`'s audit
        of a coordinator that stalled)."""
        query.status = "done" if error is None else "failed"
        query.error = error
        if error is not None:
            query.error_class = (
                "fleet_exhausted"
                if isinstance(error, FleetExhaustedError)
                else classify_failure(error)[0]
            )
        query.finish_time = self.sim.now
        self._m_queries.inc(status=query.status)

    def _shard_proc(self, query: FleetQuery, shard: Optional[int], results: dict):
        """One shard's bounded failover loop.

        Never raises: the terminal value — a shard QueryResult or a
        typed error — lands in ``results[shard]`` so the gather barrier
        (an AllOf over sibling shards) cannot be torn down by one
        shard's failure while the others still hold sessions.
        """
        chain = FallbackChain(
            shard if shard is not None else "any",
            self.failover.max_attempts,
            self._clock,
        )
        query.chains[shard] = chain
        tried: set[int] = set()
        while True:
            fs = self._route(shard, tried)
            if fs is None and tried:
                # every replica has been tried this campaign; a later
                # hop may still land on a recovered server
                tried = set()
                fs = self._route(shard, tried)
            if fs is None or chain.exhausted:
                results[shard] = chain.exhaust()
                return
            if chain.attempts and self.failover.backoff_seconds:
                yield self.sim.timeout(
                    self.failover.backoff_seconds * len(chain.attempts)
                )
            outcome, payload = yield from self._run_attempt(
                query, shard, chain, fs, tried
            )
            if outcome == "ok":
                results[shard] = payload
                return
            if outcome not in FAILOVER_CLASSES:
                # fatal on this replica means fatal on every replica
                # (identical plans, identical budgets): do not multiply
                # the damage by re-dispatching
                results[shard] = (
                    payload if isinstance(payload, BaseException)
                    else chain.exhaust()
                )
                return
            query.failovers += 1
            self._m_failovers.inc(outcome=outcome)
            tried.add(fs.index)

    def _run_attempt(
        self,
        query: FleetQuery,
        shard: Optional[int],
        chain: FallbackChain,
        fs: FleetServer,
        tried: set[int],
    ):
        """One hop — plus its watchdog and optional hedge.

        Yields simulated waits; returns ``(outcome, payload)`` where the
        payload is the shard QueryResult on ``"ok"`` and the typed
        exception (or None) otherwise.  Every hop opened here is
        resolved here, on every path — the RP007 contract.
        """
        policy = self.failover
        start = self.sim.now
        deadline = (
            start + policy.dispatch_timeout_seconds
            if policy.dispatch_timeout_seconds is not None
            else None
        )
        hedge_at = (
            start + policy.hedge_delay_seconds
            if policy.hedge_delay_seconds is not None
            else None
        )
        hops = [self._launch(query, shard, chain, fs, "primary")]
        failures: list[tuple[str, Optional[BaseException]]] = []
        while True:
            # 1. reap finished sessions (winner first, then failures)
            done = [h for h in hops if h.session is not None and h.session.finished]
            winner = next((h for h in done if h.session.status == "done"), None)
            if winner is not None:
                self._close_hop(query, chain, winner, "ok")
                for loser in hops:
                    if loser is winner:
                        continue
                    if loser.session is not None and not loser.session.finished:
                        # first response wins: cancelling runs the
                        # loser's driver finally, which conserves its
                        # budget and staging credits
                        loser.fs.server.cancel(
                            loser.session, "hedged: first response won"
                        )
                    self._close_hop(query, chain, loser, "hedge_loser")
                return "ok", winner.session.result
            for hop in done:
                session = hop.session
                outcome = session.error_class or (
                    "shed" if session.status == "shed" else "fatal"
                )
                self._close_hop(query, chain, hop, outcome)
                failures.append((outcome, session.error))
                hops.remove(hop)
            if not hops:
                # every dispatch of this hop failed; the primary's
                # outcome steers the failover loop
                return failures[0]
            now = self.sim.now
            # 2. watchdog: cancel whatever is still unresolved, typed
            if deadline is not None and now >= deadline - 1e-12:
                for hop in hops:
                    cause = ServerStallTimeout(
                        f"dispatch to {hop.fs.name} unresolved after "
                        f"{policy.dispatch_timeout_seconds:g}s"
                    )
                    if hop.session is not None:
                        hop.fs.server.cancel(hop.session, cause)
                    else:
                        # the dispatch is parked inside the partition:
                        # it never reached the backend, so there is
                        # nothing to cancel — fail the hop directly
                        self._close_hop(query, chain, hop, "stall_timeout")
                        failures.append(("stall_timeout", cause))
                hops = [h for h in hops if h.session is not None]
                deadline = None
                if not hops:
                    return failures[0]
                # let the cancelled drivers unwind (their finally
                # blocks run at the current instant) before reaping
                yield self.sim.all_of([h.session.done for h in hops])
                continue
            # 3. submit partition-parked dispatches whose window lifted
            parked = [
                h for h in hops if h.session is None and now >= h.ready_at - 1e-12
            ]
            for hop in parked:
                self._activate_entry(query, shard, hop)
            if parked:
                continue  # reap immediately (the submit may have failed)
            # 4. hedge: one extra dispatch on the next replica
            if hedge_at is not None and now >= hedge_at - 1e-12:
                hedge_at = None
                exclude = tried | {h.fs.index for h in hops}
                hfs = self._route(shard, exclude)
                if hfs is not None and not chain.exhausted:
                    hops.append(self._launch(query, shard, chain, hfs, "hedge"))
                    continue  # reap immediately (the hedge may be shed)
            # 5. park until the next signal
            waits = [h.session.done for h in hops if h.session is not None]
            horizons = [h.ready_at for h in hops if h.session is None]
            if deadline is not None:
                horizons.append(deadline)
            if hedge_at is not None:
                horizons.append(hedge_at)
            if horizons:
                waits.append(self.sim.timeout(max(0.0, min(horizons) - now)))
            yield self.sim.any_of(waits)

    def _launch(
        self,
        query: FleetQuery,
        shard: Optional[int],
        chain: FallbackChain,
        fs: FleetServer,
        kind: str,
    ) -> _Hop:
        """Open a hop on ``fs`` and submit — or park on its partition."""
        fs.inflight += 1
        fs.dispatches += 1
        self._m_dispatches.inc(server=fs.name)
        now = self.sim.now
        stall_end = fs.stall_end(now)
        hop = _Hop(
            chain.begin_attempt(fs.name),
            fs,
            kind,
            # control-plane partition: the dispatch hangs at the fleet
            # edge until the window lifts (or the watchdog kills it)
            ready_at=now if stall_end is None else stall_end,
        )
        if stall_end is None:
            self._activate_entry(query, shard, hop)
        return hop

    def _activate_entry(
        self, query: FleetQuery, shard: Optional[int], hop: _Hop
    ) -> None:
        """Submit a hop's session.  An edge refusal (AdmissionError: the
        demand can never fit, identically on every replica) becomes an
        already-terminal stand-in session, so the reap loop resolves the
        hop through the one shared path."""
        plan = query.plan if shard is None else self._scatter_plan(query.plan)
        where = "" if shard is None else f"/s{shard}"
        try:
            hop.session = hop.fs.server.submit(
                plan, query.config, name=f"{query.name}{where}@{hop.fs.name}"
            )
        except AdmissionError as error:
            hop.session = _FailedEdge(classify_failure(error)[0], error)

    def _close_hop(
        self, query: FleetQuery, chain: FallbackChain, hop: _Hop, outcome: str
    ) -> None:
        """Resolve one hop — the only code that does: the typed entry in
        the chain's attempt log, the backend's live-load count, its
        breaker (``ok`` is a success; only outcomes that indict the
        *server* are failures) and the hedge win/loss feed."""
        chain.resolve(hop.hop, outcome)
        hop.fs.inflight -= 1
        if outcome == "ok":
            hop.fs.breaker.record_success()
        elif outcome in _BREAKER_CLASSES:
            hop.fs.breaker.record_failure()
        if hop.kind == "hedge":
            won = outcome == "ok"
            query.hedge_wins += won
            self._m_hedges.inc(result="win" if won else "loss")

    # -- gather + merge ----------------------------------------------------

    @staticmethod
    def _merge(
        query: FleetQuery, shards: Sequence[Optional[int]], results: dict
    ) -> QueryResult:
        """Gather: re-merge the per-shard results into the query's.

        Scalars go through the collector's
        :func:`~repro.engine.collect.merge_scalar`, and each shard's
        group rows fold, in shard order, into one
        :class:`~repro.jit.pipeline.GroupTable`, the merge the collector
        runs over worker tables.  The plan's ORDER BY / LIMIT, stripped
        from aggregating shard plans, apply here, and the columns are
        the plan's (an empty shard result names none)."""
        if len(shards) == 1:
            return results[shards[0]]
        parts = [results[shard] for shard in shards]  # shard order
        root = query.plan.root
        profile = parts[0].profile
        if isinstance(root, LogicalReduce):
            return scalar_result(root.aggs, [part.scalar for part in parts], profile)
        if isinstance(root, LogicalGroupBy):
            width = len(root.keys)
            merged = GroupTable(root.aggs)
            for part in parts:
                keys = [row[:width] for row in part.rows]
                merged.fold(keys, list(zip(*part.rows))[width:])
            rows = merged.rows()
        else:
            rows = [row for part in parts for row in part.rows]
        columns = query.plan.output_columns()
        rows = order_rows(rows, columns, query.plan)
        return QueryResult(columns=columns, rows=rows, profile=profile)

    # -- reporting ---------------------------------------------------------

    def _report(self, reports: dict[str, BatchReport]) -> FleetReport:
        finished, makespan = drive_window(self._queries, self._reported)
        failovers: dict[str, int] = {}
        for query in finished:
            for chain in query.chains.values():
                for attempt in chain.attempts:
                    if attempt.outcome in ("ok", "hedge_loser"):
                        continue
                    failovers[attempt.outcome] = failovers.get(attempt.outcome, 0) + 1
        return FleetReport(
            queries=finished,
            makespan=makespan,
            server_reports=reports,
            dispatches={fs.name: fs.dispatches for fs in self._servers},
            failovers_by_outcome=failovers,
            hedge_wins=sum(q.hedge_wins for q in finished),
            server_losses=len(self._losses),
            breaker_states={fs.name: fs.breaker.state for fs in self._servers},
            lost_servers=[fs.name for fs in self._servers if not fs.alive],
            events=self._events(),
            metrics=self.metrics.snapshot(),
        )

    def _events(self) -> list[dict]:
        """The fleet-scope log, rebuilt from where each fact is kept:
        the stall windows, the fired losses and every backend's
        :attr:`~repro.engine.failover.CircuitBreaker.transitions` —
        which timestamps *every* flip, whether a probe or a dispatch
        outcome caused it — merged in simulated-time order."""
        events = [
            {"kind": "server_stall", "server": fs.name, "at": start, "until": end}
            for fs in self._servers
            for start, end in fs.stall_windows
        ]
        events += self._losses
        events += [
            {"kind": f"breaker_{state}", "server": fs.name, "at": at}
            for fs in self._servers
            for at, state in fs.breaker.transitions
        ]
        return sorted(events, key=lambda event: event["at"])

    def check_conservation(self) -> dict[str, dict[str, float]]:
        """Per-backend conservation audit (budgets, state, staging)."""
        return {fs.name: fs.server.check_conservation() for fs in self._servers}


class _FailedEdge:
    """Session stand-in for a dispatch refused at the submission edge:
    already terminal and typed like the refusal, so the dispatcher's
    reap loop resolves its hop exactly like a real failed session."""

    def __init__(self, outcome: str, error: Optional[BaseException]):
        self.status = "failed"
        self.error = error
        self.error_class = outcome
        self.finished = True
        self.result = None
