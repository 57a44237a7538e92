"""A drive is a value: one :class:`Scenario`, one :func:`run_scenario`.

Test support for ``tests/`` and ``benchmarks/`` (the root ``conftest.py``
puts this directory on ``sys.path``); a harness, not a serving feature —
nothing here is importable as ``repro.*``.

A :class:`Scenario` is plain data: the SSB table spec, the
``EngineServer`` (or ``EngineFleet``) keyword shape, and the load as
explicit :class:`Arrival` tuples and seeded :class:`OpenLoop` /
:class:`ClosedLoop` specs.  It holds **no live object** — a budget is a
capacity mapping, a shared cache a ``(capacity, policy)`` pair, a query
a name — so the runner builds everything fresh, the same scenario always
gives the same :meth:`Outcome.signature`, and the ``repr()`` every
failing invariant prints is the reproduction recipe.

:func:`run_scenario` checks on **every** drive what every drive must
satisfy (:meth:`Outcome.check`): conservation clean, every reported
session / fleet query terminal and counted once, every ``done`` one
byte-identical to :class:`ReferenceExecutor`, every ``failed`` one
typed.  A test body is left with the assertions that are specific to
its scenario.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import (
    EngineFleet,
    EngineServer,
    ExecutionConfig,
    QoS,
    ResourceBudget,
    SharedCacheDirectory,
    agg_sum,
    col,
    scan,
)
from repro.engine.reference import ReferenceExecutor
from repro.engine.scheduler import SchedulerError
from repro.ssb import (
    SSB_QUERY_IDS,
    generate_ssb,
    load_ssb,
    ssb_logical_scales,
    ssb_query,
)

#: every query a scenario can name -> its one plan object: the 13 SSB
#: ids plus two join-free plans over ``lineorder``.  A plan with no
#: joins places as a single phase (its only wave is also its last); the
#: wide one streams four columns — slow enough to still be running when
#: a join query reaches its first phase boundary
PLANS = {
    **{query: ssb_query(query) for query in SSB_QUERY_IDS},
    "single_phase": scan("lineorder", ["lo_revenue"]).reduce(
        [agg_sum(col("lo_revenue"), "rev")]
    ),
    "wide_single_phase": scan(
        "lineorder",
        ["lo_revenue", "lo_extendedprice", "lo_ordtotalprice", "lo_quantity"],
    ).reduce([agg_sum(col("lo_revenue"), "rev")]),
}
_QUERY_OF = {id(plan): query for query, plan in PLANS.items()}


@functools.cache
def ssb_tables(scale_factor: float = 0.005, seed: int = 13):
    """The one generated copy of the SSB tables at a physical scale."""
    return generate_ssb(scale_factor=scale_factor, seed=seed)


@functools.cache
def reference_rows(query: str, scale_factor: float = 0.005, seed: int = 13):
    """Oracle rows of a named query, computed once per table spec."""
    return ReferenceExecutor(ssb_tables(scale_factor, seed)).execute(PLANS[query])


@dataclass(frozen=True)
class Tables:
    """Which SSB tables a drive loads and how the engine segments them."""

    scale_factor: float = 0.005
    seed: int = 13
    logical_sf: Optional[float] = None
    segment_rows: int = 2048


@dataclass(frozen=True)
class Arrival:
    """One submission: before the drive (``at == 0``) or ``at`` simulated
    seconds into it, from a process inside the simulation."""

    query: str
    config: ExecutionConfig
    at: float = 0.0
    name: Optional[str] = None
    qos: Optional[QoS] = None
    tenant: Optional[str] = None


@dataclass(frozen=True)
class OpenLoop:
    """``EngineServer.spawn_open_loop``: seeded Poisson arrivals."""

    queries: tuple[str, ...]
    config: ExecutionConfig
    rate_qps: float
    arrivals: int
    seed: int = 0
    name: str = "open"
    qos: Optional[QoS] = None
    tenant: Optional[str] = None


@dataclass(frozen=True)
class ClosedLoop:
    """``EngineServer.spawn_client``: submit, await, think, repeat."""

    queries: tuple[str, ...]
    config: ExecutionConfig
    think_seconds: float = 0.0
    name: str = "client"


def batch(queries, config: ExecutionConfig, **kwargs) -> tuple[Arrival, ...]:
    """Up-front arrivals of ``queries``, each session named by its query."""
    return tuple(Arrival(q, config, name=q, **kwargs) for q in queries)


def _assert_plain(value: Any, path: str) -> None:
    """A scenario reaches only frozen dataclasses, tuples, mappings,
    strings and numbers: a live object stored in it would carry state
    from one run into the next."""
    if dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen:
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    elif isinstance(value, tuple):
        value = dict(enumerate(value))
    if isinstance(value, Mapping):
        for key, item in value.items():
            _assert_plain(item, f"{path}[{key!r}]")
    elif not (value is None or isinstance(value, (str, int, float))):
        raise TypeError(
            f"{path} holds {value!r}: a scenario is plain data "
            f"(frozen dataclass, tuple, mapping, str or number)"
        )


@dataclass(frozen=True)
class Scenario:
    """One drive, as plain data (validated on construction)."""

    #: :class:`Arrival` / :class:`OpenLoop` / :class:`ClosedLoop`, spawned
    #: in this order
    arrivals: tuple = ()
    #: ``EngineServer`` keywords (a fleet's ``server_kwargs``)
    server: Mapping[str, Any] = field(default_factory=dict)
    #: ``EngineFleet`` keywords; None drives a single server
    fleet: Optional[Mapping[str, Any]] = None
    tables: Tables = Tables()
    #: ``ResourceBudget`` capacities (default: the machine's)
    budget: Optional[Mapping[str, float]] = None
    #: ``SharedCacheDirectory(capacity, policy)`` the engines attach to
    shared_cache: Optional[tuple[int, str]] = None
    #: the status every reported session / query must end in
    expect: Optional[str] = None
    #: the drive is declared to end in a ``SchedulerError``
    stalls: bool = False

    def __post_init__(self) -> None:
        _assert_plain(self, "scenario")


def build(scenario: Scenario, shared_cache: Optional[SharedCacheDirectory] = None):
    """The scenario's system, tables loaded, nothing submitted yet.

    ``shared_cache`` attaches a *live* directory (an earlier outcome's)
    in place of a fresh one: how a second server joins the first's tier.
    """
    spec = scenario.tables
    tables = ssb_tables(spec.scale_factor, spec.seed)
    kwargs: dict[str, Any] = {"segment_rows": spec.segment_rows}
    if scenario.shared_cache is not None:
        # `is None`, not truthiness: an empty directory is falsy
        if shared_cache is None:
            shared_cache = SharedCacheDirectory(*scenario.shared_cache)
        kwargs["shared_cache"] = shared_cache
    if scenario.fleet is not None:
        fleet = EngineFleet(
            **scenario.fleet, server_kwargs=dict(scenario.server), **kwargs
        )
        scales = None
        if spec.logical_sf is not None:
            scales = ssb_logical_scales(tables, spec.logical_sf)
        fleet.load_tables(tables, fact="lineorder", logical_scales=scales)
        return fleet
    if scenario.budget is not None:
        kwargs["budget"] = ResourceBudget(**scenario.budget)
    server = EngineServer(**scenario.server, **kwargs)
    load_ssb(server.engine, tables=tables, logical_sf=spec.logical_sf)
    return server


def _keywords(item) -> dict[str, Any]:
    """An arrival spec's fields after (queries, config) are keywords of
    the method that spawns it; unset ones keep that method's default
    (and ``EngineFleet.submit`` takes neither ``qos`` nor ``tenant``)."""
    fields = ((f.name, getattr(item, f.name)) for f in dataclasses.fields(item)[2:])
    return {name: value for name, value in fields if value is not None}


def _spawn(system, arrivals) -> None:
    def later(at, *args, **keywords):
        yield system.sim.timeout(at)
        system.submit(*args, **keywords)

    for item in arrivals:
        keywords = _keywords(item)
        if isinstance(item, Arrival):
            at = keywords.pop("at")
            if at > 0:
                proc = later(at, PLANS[item.query], item.config, **keywords)
                system.sim.process(proc, name=f"arrival+{at:g}")
            else:
                system.submit(PLANS[item.query], item.config, **keywords)
        else:
            loop = isinstance(item, OpenLoop)
            spawn = system.spawn_open_loop if loop else system.spawn_client
            spawn([PLANS[q] for q in item.queries], item.config, **keywords)


def run_scenario(
    scenario: Scenario, shared_cache: Optional[SharedCacheDirectory] = None
) -> "Outcome":
    """Build, load, drive and :meth:`~Outcome.check` one scenario."""
    return _drive(scenario, build(scenario, shared_cache), scenario.arrivals, ())


def _drive(scenario: Scenario, system, arrivals, reported: tuple) -> "Outcome":
    _spawn(system, arrivals)
    error = None
    try:
        report = system.run()
    except SchedulerError as exc:
        if not scenario.stalls:
            raise
        error, report = exc, system.last_report
    outcome = Outcome(scenario, system, report, error, reported)
    outcome.check()
    return outcome


def assert_sessions_counted_once_and_terminal(report, reported=None) -> None:
    """Lifecycle invariant of a server's drives, whatever the mix of
    features and faults: ``repro_sessions_total`` counts every session
    ``reported`` so far (default: a fresh server's first drive) exactly
    once, under a terminal status."""
    values = report.metrics["repro_sessions_total"]["values"]
    for labels in values:
        status = re.search(r'status="([^"]*)"', labels).group(1)
        assert status in {"done", "failed", "shed"}, labels
    reported = report.sessions if reported is None else reported
    assert sum(values.values()) == len(reported)


def assert_fleet_queries_counted_once_and_terminal(
    fleet, report, reported=None
) -> None:
    """The same invariant one tier up: every reported query is terminal
    and counted exactly once in ``repro_fleet_queries_total``, every
    hedge win is counted once, every failover hop was closed and no
    backend is left with a dispatch in flight."""
    for query in report.queries:
        assert query.status in {"done", "failed"}, query.name
        assert query.finish_time is not None, query.name
        for chain in query.chains.values():
            chain.assert_closed()
    reported = report.queries if reported is None else reported
    values = report.metrics["repro_fleet_queries_total"]["values"]
    assert set(values) <= {'{status="done"}', '{status="failed"}'}
    assert sum(values.values()) == len(reported)
    hedges = report.metrics["repro_fleet_hedges_total"]["values"]
    assert hedges.get('{result="win"}', 0.0) == sum(q.hedge_wins for q in reported)
    for fs in fleet.servers:
        assert fs.inflight == 0, fs.name


@dataclass
class Outcome:
    scenario: Scenario
    #: the live ``EngineServer`` / ``EngineFleet`` the drive ran on
    system: Any
    #: its ``BatchReport`` / ``FleetReport`` (``last_report`` of a stall)
    report: Any
    #: the ``SchedulerError`` of a drive declared to stall
    error: Optional[SchedulerError] = None
    #: what this system's earlier drives reported (see :meth:`then`)
    earlier: tuple = ()

    @property
    def items(self) -> list:
        """This drive's sessions (server) or queries (fleet)."""
        report = self.report
        return report.sessions if self.scenario.fleet is None else report.queries

    @functools.cached_property
    def sessions(self) -> dict[str, Any]:
        return {item.name: item for item in self.items}

    def then(self, *arrivals) -> "Outcome":
        """One more checked drive, of ``arrivals``, on the same system."""
        reported = (*self.earlier, *self.items)
        return _drive(self.scenario, self.system, arrivals, reported)

    def _require(self, holds: bool, what: str) -> None:
        if not holds:
            raise AssertionError(f"{what}\n  scenario: {self.scenario!r}")

    def check(self) -> None:
        """What every drive must satisfy; a failure names the scenario."""
        scenario, spec = self.scenario, self.scenario.tables
        stalled = self.error is not None
        self._require(stalled == scenario.stalls, f"drive stalled: {stalled}")
        reported = (*self.earlier, *self.items)
        try:
            self.system.check_conservation()
            if scenario.fleet is None:
                assert_sessions_counted_once_and_terminal(self.report, reported)
            else:
                assert_fleet_queries_counted_once_and_terminal(
                    self.system, self.report, reported
                )
        except Exception as exc:
            self._require(False, f"conservation / lifecycle: {exc!r}")
        for item in self.items:
            tag = f"{item.name} [{item.status}, {item.error!r}]"
            expect = scenario.expect or item.status
            self._require(item.status == expect, f"{tag}: expected {expect}")
            if item.status == "done":
                query = _QUERY_OF[id(item.plan)]
                want = reference_rows(query, spec.scale_factor, spec.seed)
                got = item.result.rows
                if not item.plan.order:
                    got, want = sorted(got), sorted(want)
                self._require(got == want, f"{tag}: rows differ from the reference")
                columns = item.plan.output_columns()
                self._require(item.result.columns == columns, f"{tag}: columns")
            elif item.status == "failed":
                typed = item.error is not None and item.error_class is not None
                self._require(typed, f"{tag}: untyped failure")
            else:
                self._require(item.status == "shed", f"{tag}: not terminal")

    def signature(self) -> tuple:
        """What two runs of one scenario must agree on: makespan, every
        session's outcome to the bit, the behavioural counters and the
        simulator's event count."""
        if self.scenario.fleet is None:
            counters = ("preemptions", "resizes", "retries", "fallbacks", "faults")
            counters += ("cache",)
            trails = [(s.retried_classes, s.dop_trajectory) for s in self.items]
        else:
            counters = ("dispatches", "failovers_by_outcome", "hedge_wins")
            counters += ("server_losses", "events")
            trails = [
                [(a.replica, a.outcome, a.started, a.elapsed) for a in q.attempts()]
                for q in self.items
            ]
        outcomes = [
            (i.name, i.status, i.latency, i.result and i.result.rows)
            for i in self.items
        ]
        return (
            self.report.makespan,
            outcomes,
            trails,
            [getattr(self.report, name) for name in counters],
            self.system.check_conservation(),  # the budgets' lifetime totals
            self.system.sim._seq,
        )
