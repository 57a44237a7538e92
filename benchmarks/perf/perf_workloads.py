"""The six workloads of the layered benchmark.

Every workload is driven from *outside* the program, through public
functions and public post-run fields only, in four steps the runner
(``run.py``) times separately:

``generate``  inputs from the seed: SSB tables, plans, arrival schedule,
              fault plan, and the reference rows every result is checked
              against (:class:`repro.engine.reference.ReferenceExecutor`);
``prepare``   a fresh engine / server / fleet, loaded and — where the
              workload serves a *warm* system — warmed up (untimed,
              repeated before every drive);
``drive``     the timed region: only calls into the program;
``observe``   untimed: conservation audit, then every simulated
              statistic and public counter of the drive, folded into an
              :class:`Observation` whose :meth:`~Observation.signature`
              must repeat exactly from drive to drive.

Why these six, and what each bypasses, is in ``README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional

import perf_micro
from perf_trace import SimSpan, Tracer

from repro.engine.config import ExecutionConfig, QoS
from repro.engine.failover import BreakerPolicy, FailoverPolicy
from repro.engine.faults import FaultPlan, ServerLossFault, ServerStallFault
from repro.engine.fleet import EngineFleet
from repro.engine.proteus import Proteus
from repro.engine.reference import ReferenceExecutor
from repro.engine.scheduler import EngineServer, SchedulerError, Tenant
from repro.ssb import SSB_QUERY_IDS, generate_ssb, load_ssb, ssb_query
from repro.ssb.loader import working_set_bytes

#: public post-drive fields, per layer (name -> unit).  All are
#: deterministic per seed and part of the drive signature.
COUNTERS = {
    "core.router.blocks_routed": "count",
    "core.mem_move.transfers": "count",
    "core.mem_move.forwards": "count",
    "core.mem_move.bytes_moved": "B",
    "core.ops.kernels_launched": "count",
    "jit.pipeline.cpu_tuples": "count",
    "jit.pipeline.gpu_tuples": "count",
    "jit.pipeline.random_accesses": "count",
    "engine.executor.phases": "count",
    "engine.executor.build_sim_s": "sim_s",
    "engine.executor.probe_sim_s": "sim_s",
    "jit.compile.hits": "count",
    "jit.compile.misses": "count",
    "jit.compile.evictions": "count",
    "jit.compile.hit_rate": "share",
    "jit.compile.compile_sim_s": "sim_s",
    "hardware.resources.pcie_util": "share",
    "hardware.resources.qpi_util": "share",
    "hardware.resources.dram_util": "share",
    "hardware.resources.gpu_util": "share",
    "engine.scheduler.queue_sim_s": "sim_s",
    "engine.scheduler.service_sim_s": "sim_s",
    "engine.scheduler.suspended_sim_s": "sim_s",
    "engine.scheduler.preemptions": "count",
    "engine.scheduler.resizes": "count",
    "engine.scheduler.retries": "count",
    "engine.scheduler.shed": "count",
    "engine.tenancy.bulk_peak_cores": "count",
    "engine.tenancy.acme_completed_share": "share",
    "engine.fleet.dispatches": "count",
    "engine.fleet.failovers": "count",
    "engine.fleet.hedges": "count",
    "engine.fleet.server_losses": "count",
    "engine.fleet.attempts_per_query": "1/query",
}

INTERACTIVE_QUERIES = ("Q1.1", "Q1.2", "Q1.3")
BATCH_QUERIES = ("Q2.1", "Q3.1", "Q4.1", "Q4.2")
#: the interactive class's latency limit (simulated seconds)
DEADLINE_SECONDS = 0.05


@dataclass
class Op:
    """One operation of a drive: a query (or, in ``layer_micro``, a job)."""

    name: str
    #: key into the workload's reference rows (None: nothing to check)
    query: Optional[str]
    #: 'interactive' carries the deadline; everything else is 'batch'
    cls: str
    status: str  # 'done' | 'failed' | 'shed'
    #: simulated seconds from (scheduled) submission to completion
    latency: Optional[float]
    #: None when the operation carries no deadline
    deadline_met: Optional[bool] = None
    #: logical working-set bytes the operation scanned
    bytes: float = 0.0
    columns: Optional[list] = None
    rows: Optional[list] = None


@dataclass
class Observation:
    """Everything one drive produced, from public fields."""

    ops: list[Op]
    #: simulated seconds the drive covered
    makespan: float
    counters: dict[str, float]
    #: harness-level failures: dead client, stalled batch, leaked budget
    failures: list[str] = field(default_factory=list)
    sim_spans: list[SimSpan] = field(default_factory=list)
    #: layer_micro only: the drive's host rates (noisy, not in signature)
    micro_rates: dict[str, float] = field(default_factory=dict)

    def signature(self) -> tuple:
        """What every drive of one seed must reproduce exactly."""
        return (
            self.makespan,
            [(op.name, op.status, op.latency, op.rows) for op in self.ops],
            self.counters,
            self.failures,
        )


@dataclass
class Target:
    """A prepared system plus the baselines its counters are deltas of."""

    system: Any
    #: topology servers whose resources are sampled for utilization
    machines: list
    caches: list
    busy0: dict[str, float] = field(default_factory=dict)
    cache0: tuple = (0, 0, 0)

    def baseline(self) -> "Target":
        self.busy0 = _busy_seconds(self.machines)
        self.cache0 = _cache_totals(self.caches)
        return self


def zero_counters() -> dict[str, float]:
    return {name: 0 for name in COUNTERS}


def _resources(machine) -> dict[str, list]:
    return {
        "pcie": [gpu.link.bandwidth for gpu in machine.gpus],
        "qpi": [link.bandwidth for link in machine.qpi_links.values()],
        "dram": [socket.memory.bandwidth for socket in machine.sockets],
        # no cpu: the executor never acquires Core.resource, it would read 0
        "gpu": [gpu.compute for gpu in machine.gpus],
    }


def _busy_seconds(machines: list) -> dict[str, float]:
    """Mean busy seconds per resource of each kind (public ``busy_time``)."""
    out = {}
    for kind in ("pcie", "qpi", "dram", "gpu"):
        resources = [r for m in machines for r in _resources(m)[kind]]
        out[kind] = sum(r.busy_time for r in resources) / len(resources)
    return out


def _cache_totals(caches: list) -> tuple:
    return (
        sum(c.stats.hits + c.stats.shared_hits for c in caches),
        sum(c.stats.misses for c in caches),
        sum(c.stats.evictions for c in caches),
    )


def _system_counters(counters: dict, target: Target, horizon: float) -> None:
    busy = _busy_seconds(target.machines)
    for kind, seconds in busy.items():
        counters[f"hardware.resources.{kind}_util"] = (
            (seconds - target.busy0[kind]) / horizon if horizon > 0 else 0.0
        )
    hits, misses, evictions = (
        now - before for now, before in zip(_cache_totals(target.caches), target.cache0)
    )
    counters["jit.compile.hits"] = hits
    counters["jit.compile.misses"] = misses
    counters["jit.compile.evictions"] = evictions
    counters["jit.compile.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0


def _profile_counters(counters: dict, profiles: list) -> None:
    for profile in profiles:
        counters["core.router.blocks_routed"] += profile.blocks_routed
        counters["core.mem_move.transfers"] += profile.transfers
        counters["core.mem_move.forwards"] += profile.forwards
        counters["core.mem_move.bytes_moved"] += profile.bytes_transferred
        counters["core.ops.kernels_launched"] += profile.kernels_launched
        for device, stats in profile.device_stats.items():
            counters[f"jit.pipeline.{device}_tuples"] += stats.tuples_in
            counters["jit.pipeline.random_accesses"] += stats.random_accesses
        # phase-seconds: phases of one wave overlap and each counts
        for phase, seconds in profile.phase_seconds.items():
            counters["engine.executor.phases"] += 1
            kind = "build" if phase.startswith("build") else "probe"
            counters[f"engine.executor.{kind}_sim_s"] += seconds


def _session_counters(counters: dict, sessions: list) -> None:
    for session in sessions:
        counters["jit.compile.compile_sim_s"] += session.compile_seconds_charged
        counters["engine.scheduler.queue_sim_s"] += session.queue_seconds or 0.0
        counters["engine.scheduler.service_sim_s"] += session.service_seconds or 0.0
        counters["engine.scheduler.suspended_sim_s"] += session.suspended_seconds
        counters["engine.scheduler.preemptions"] += session.preemptions
        counters["engine.scheduler.resizes"] += session.resizes
        counters["engine.scheduler.retries"] += session.retries
        counters["engine.scheduler.shed"] += session.status == "shed"


def _phase_spans(query: str, start: float, profile, parent: str) -> list[SimSpan]:
    """Phases laid end to end from ``start`` (only durations are public;
    the phases of one wave really overlap)."""
    spans = []
    for phase, seconds in profile.phase_seconds.items():
        spans.append(SimSpan(phase, start, seconds, query, parent=parent))
        start += seconds
    return spans


def rows_match(plan, columns: list, rows: list, expected: list) -> bool:
    """The acceptance tiers' comparison: the same rows, and under ORDER BY
    the contractual order — the sort keys agree position by position
    (rows that tie on every key may come in either order)."""
    if sorted(rows) != sorted(expected):
        return False
    keys = [columns.index(spec.name) for spec in plan.order]
    return all(
        [row[key] for key in keys] == [want[key] for key in keys]
        for row, want in zip(rows, expected)
    )


class Workload:
    """Base: the SSB inputs and reference rows shared by five workloads."""

    name = ""
    physical_sf = 0.01
    quick_sf = 0.001
    segment_rows = 2048
    query_ids: tuple = tuple(SSB_QUERY_IDS)
    #: --quick runs one query per SSB flight
    quick_query_ids: tuple = ("Q1.1", "Q2.1", "Q3.1", "Q4.1")

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.tables: dict = {}
        self.plans: dict = {}
        self.reference: dict[str, list] = {}

    def generate(self, tracer: Tracer) -> None:
        sf = self.quick_sf if self.quick else self.physical_sf
        with tracer.span("generate_ssb", scale_factor=sf):
            self.tables = generate_ssb(scale_factor=sf, seed=self.seed)
        query_ids = self.quick_query_ids if self.quick else self.query_ids
        self.plans = {qid: ssb_query(qid) for qid in query_ids}
        oracle = ReferenceExecutor(self.tables)
        for qid, plan in self.plans.items():
            with tracer.span("ReferenceExecutor.execute", query=qid):
                self.reference[qid] = oracle.execute(plan)

    def prepare(self, tracer: Tracer) -> Target:
        raise NotImplementedError

    def drive(self, target: Target, tracer: Tracer) -> Any:
        raise NotImplementedError

    def observe(self, target: Target, raw: Any, tracer: Tracer) -> Observation:
        raise NotImplementedError

    def wrong_rows(self, observation: Observation) -> list[str]:
        """Names of completed operations whose rows miss the reference."""
        return [
            op.name
            for op in observation.ops
            if op.status == "done"
            and op.query is not None
            and not rows_match(
                self.plans[op.query], op.columns, op.rows, self.reference[op.query]
            )
        ]


class SsbSerial(Workload):
    """13 SSB queries, one at a time via ``Proteus.query``, cold cache."""

    logical_sf = 1000.0
    config: ExecutionConfig

    def prepare(self, tracer: Tracer) -> Target:
        engine = Proteus(segment_rows=self.segment_rows)
        with tracer.span("load_ssb"):
            load_ssb(engine, tables=self.tables, logical_sf=self.logical_sf)
        return Target(engine, [engine.server], [engine.pipeline_cache]).baseline()

    def drive(self, target: Target, tracer: Tracer) -> list:
        engine = target.system
        results = []
        for qid, plan in self.plans.items():
            with tracer.span("Proteus.query", query=qid):
                results.append(engine.query(plan, self.config))
        return results

    def observe(self, target: Target, raw: list, tracer: Tracer) -> Observation:
        catalog = target.system.catalog
        counters = zero_counters()
        ops, spans, clock = [], [], 0.0
        for (qid, plan), result in zip(self.plans.items(), raw):
            ops.append(
                Op(
                    name=qid,
                    query=qid,
                    cls="batch",
                    status="done",
                    latency=result.seconds,
                    bytes=working_set_bytes(catalog, plan),
                    columns=result.columns,
                    rows=result.rows,
                )
            )
            if tracer.enabled:
                spans.append(SimSpan(qid, clock, result.seconds, qid))
                spans += _phase_spans(qid, clock, result.profile, parent=qid)
            clock += result.seconds
        _profile_counters(counters, [result.profile for result in raw])
        _system_counters(counters, target, clock)
        return Observation(ops, clock, counters, sim_spans=spans)


class SsbGpuSmallBlock(SsbSerial):
    name = "ssb_gpu_smallblock"
    config = ExecutionConfig.gpu_only((0, 1), block_tuples=256, prefetch_depth=2)


class SsbHybridBigBlock(SsbSerial):
    name = "ssb_hybrid_bigblock"
    physical_sf = 0.2
    quick_sf = 0.01
    segment_rows = 131072
    config = ExecutionConfig.hybrid(24, [0, 1], block_tuples=65536)


@dataclass
class Arrival:
    at: float  # simulated seconds after the drive starts
    query: str
    interactive: bool


class Serve(Workload):
    """Open-loop two-tenant serving on a warm ``EngineServer``."""

    # service time is dominated by fixed per-query costs, so the simulated
    # statistics barely move with the physical size while host time per
    # arrival does: a small table buys more arrivals per host second
    physical_sf = quick_sf = 0.0005
    query_ids = quick_query_ids = INTERACTIVE_QUERIES + BATCH_QUERIES
    rate_qps = 0.0
    arrivals = 0
    quick_arrivals = 16
    server_kwargs: dict = {}
    cpu = ExecutionConfig.cpu_only(4, block_tuples=256)
    hybrid = ExecutionConfig.hybrid(4, [0, 1], block_tuples=256)
    interactive = QoS.interactive(deadline_seconds=DEADLINE_SECONDS)

    def generate(self, tracer: Tracer) -> None:
        super().generate(tracer)
        count = self.quick_arrivals if self.quick else self.arrivals
        self.schedule = self._schedule(count)

    def _schedule(self, count: int) -> list[Arrival]:
        """Poisson arrivals conditioned on their count: ``count`` arrival
        instants uniform over ``count / rate_qps`` seconds, 75 %
        interactive.  Every seed offers the same load over the same
        horizon; only the placement of the arrivals differs."""
        rng = random.Random(self.seed)
        horizon = count / self.rate_qps
        interactive = round(count * 0.75)
        arrivals = []
        for total, queries, flag in (
            (interactive, INTERACTIVE_QUERIES, True),
            (count - interactive, BATCH_QUERIES, False),
        ):
            instants = sorted(rng.uniform(0.0, horizon) for _ in range(total))
            arrivals += [
                Arrival(at, queries[index % len(queries)], flag)
                for index, at in enumerate(instants)
            ]
        return sorted(arrivals, key=lambda arrival: arrival.at)

    def _submit(self, server: EngineServer, qid: str, interactive: bool, name: str):
        plan = self.plans[qid]
        if interactive:
            return server.submit(
                plan, self.cpu, name=name, qos=self.interactive, tenant="acme"
            )
        return server.submit(
            plan, self.hybrid, name=name, qos=QoS.batch(), tenant="bulk"
        )

    def prepare(self, tracer: Tracer) -> Target:
        server = EngineServer(
            segment_rows=self.segment_rows,
            max_concurrent=4,
            admission="sla",
            tenants=[
                Tenant("acme", weight=2),
                Tenant("bulk", weight=1, compute_quota=0.5),
            ],
            **self.server_kwargs,
        )
        with tracer.span("load_ssb"):
            load_ssb(server.engine, tables=self.tables)
        with tracer.span("warm-up", shapes=len(self.plans)):
            for qid in self.plans:
                self._submit(server, qid, qid in INTERACTIVE_QUERIES, f"warm:{qid}")
            server.run()
        server.check_conservation()
        cache = server.engine.pipeline_cache
        return Target(server, [server.server], [cache]).baseline()

    def drive(self, target: Target, tracer: Tracer) -> tuple:
        server = target.system
        sim = server.sim
        start = sim.now

        def open_loop():
            # runs inside simulated time, so it can never be late: each
            # session's submit_time IS its scheduled arrival
            for index, arrival in enumerate(self.schedule):
                yield sim.timeout(max(0.0, start + arrival.at - sim.now))
                with tracer.span("EngineServer.submit", query=arrival.query):
                    self._submit(
                        server, arrival.query, arrival.interactive, f"a{index}"
                    )

        client = sim.process(open_loop(), name="open-loop")
        stalled = None
        with tracer.span("EngineServer.run"):
            try:
                report = server.run()
            except SchedulerError as error:
                stalled, report = error, server.last_report
        return client, report, stalled

    def observe(self, target: Target, raw: tuple, tracer: Tracer) -> Observation:
        client, report, stalled = raw
        server = target.system
        failures = []
        if stalled is not None:
            failures.append(f"stalled batch: {stalled}")
        if not (client.triggered and client.ok):
            failures.append("open-loop client died before its last arrival")
        with tracer.span("check_conservation"):
            try:
                server.check_conservation()
            except AssertionError as error:
                failures.append(f"conservation: {error}")
        counters = zero_counters()
        sessions = sorted(report.sessions, key=lambda s: s.query_id)
        scan_bytes = {
            qid: working_set_bytes(server.catalog, plan)
            for qid, plan in self.plans.items()
        }
        ops, spans = [], []
        for session in sessions:
            qid = self.schedule[int(session.name[1:])].query  # named a<index>
            done = session.status == "done"
            ops.append(
                Op(
                    name=session.name,
                    query=qid,
                    cls=session.label,
                    status=session.status,
                    latency=session.latency if done else None,
                    deadline_met=session.deadline_met,
                    bytes=scan_bytes[qid],
                    columns=session.result.columns if done else None,
                    rows=session.result.rows if done else None,
                )
            )
            if tracer.enabled and done:
                spans += _session_spans(session, session.name)
        done_sessions = [s for s in sessions if s.status == "done"]
        _profile_counters(counters, [s.result.profile for s in done_sessions])
        _session_counters(counters, sessions)
        _system_counters(counters, target, report.makespan)
        bulk = report.tenants.get("bulk", {})
        counters["engine.tenancy.bulk_peak_cores"] = bulk.get("budget_peak", {}).get(
            "cpu_cores", 0.0
        )
        counters["engine.tenancy.acme_completed_share"] = (
            sum(s.tenant == "acme" for s in done_sessions) / len(done_sessions)
            if done_sessions
            else 0.0
        )
        return Observation(ops, report.makespan, counters, failures, spans)


def _session_spans(session, query: str) -> list[SimSpan]:
    """Queue -> compile -> phases (+ suspension) of one served session."""
    submit, admit = session.submit_time, session.admit_time
    spans = [
        SimSpan(
            session.name,
            submit,
            session.latency,
            query,
            args={"class": session.label, "tenant": session.tenant},
        ),
        SimSpan("queue", submit, admit - submit, query, parent=session.name),
        SimSpan(
            "compile",
            admit,
            session.compile_seconds_charged,
            query,
            parent=session.name,
            args={"fresh_pipelines": session.compiled_fresh},
        ),
    ]
    execute = admit + session.compile_seconds_charged
    spans += _phase_spans(query, execute, session.result.profile, session.name)
    if session.suspended_seconds:
        # only the total is public, not where the pauses fell
        spans.append(
            SimSpan(
                "suspended (total)",
                execute,
                session.suspended_seconds,
                query,
                parent=session.name,
                args={"preemptions": session.preemptions},
            )
        )
    return spans


class ServeSteady(Serve):
    name = "serve_steady"
    rate_qps = 150.0
    arrivals = 200
    server_kwargs = {"max_queue_depth": 64}


class ServeOverload(Serve):
    name = "serve_overload"
    rate_qps = 1200.0
    arrivals = 300
    # the queue peaks near 220 when the last arrival lands: deep, but
    # bounded above that so that no arrival is shed
    server_kwargs = {"max_queue_depth": 256, "elastic": True, "max_dop": 8}


class FleetFailover(Workload):
    """39 queries scatter-gathered over a 4-server fleet under the
    ``TestFleetChaosSweep`` fault mix (one server lost, one stalled)."""

    name = "fleet_failover"
    physical_sf = 0.005
    config = ExecutionConfig.cpu_only(4, block_tuples=256)
    rounds = 3

    def prepare(self, tracer: Tracer) -> Target:
        fleet = EngineFleet(
            num_servers=4,
            replication=2,
            segment_rows=self.segment_rows,
            fault_plan=FaultPlan(
                seed=self.seed,
                server_losses=(ServerLossFault(server_id="srv3", at_seconds=5e-3),),
                server_stalls=(
                    ServerStallFault(
                        server_id="srv1", at_seconds=0.0, duration_seconds=0.05
                    ),
                ),
            ),
            failover=FailoverPolicy(
                max_attempts=4,
                backoff_seconds=1e-3,
                dispatch_timeout_seconds=0.5,
                hedge_delay_seconds=0.2,
            ),
            breaker=BreakerPolicy(failure_threshold=2, open_seconds=0.01),
            probe_interval_seconds=0.005,
            server_kwargs={"max_concurrent": 4},
        )
        with tracer.span("EngineFleet.load_tables"):
            fleet.load_tables(self.tables, fact="lineorder")
        backends = [fs.server for fs in fleet.servers]
        # a scatter-gathered query scans every shard's slice once
        shards = {fs.shard: fs.server.catalog for fs in fleet.servers}
        self.scan_bytes = {
            qid: sum(working_set_bytes(catalog, plan) for catalog in shards.values())
            for qid, plan in self.plans.items()
        }
        return Target(
            fleet,
            [backend.server for backend in backends],
            [backend.engine.pipeline_cache for backend in backends],
        ).baseline()

    def drive(self, target: Target, tracer: Tracer) -> Any:
        fleet = target.system
        for round_index in range(1 if self.quick else self.rounds):
            for qid, plan in self.plans.items():
                with tracer.span("EngineFleet.submit", query=qid):
                    fleet.submit(plan, self.config, name=f"{qid}#{round_index}")
        with tracer.span("EngineFleet.run"):
            return fleet.run()

    def observe(self, target: Target, raw: Any, tracer: Tracer) -> Observation:
        fleet, report = target.system, raw
        failures = []
        with tracer.span("check_conservation"):
            try:
                fleet.check_conservation()
            except AssertionError as error:
                failures.append(f"conservation: {error}")
        counters = zero_counters()
        ops, spans = [], []
        for query in report.queries:
            qid = query.name.split("#")[0]
            done = query.status == "done"
            ops.append(
                Op(
                    name=query.name,
                    query=qid,
                    cls="batch",
                    status=query.status,
                    latency=query.latency if done else None,
                    bytes=self.scan_bytes[qid],
                    columns=query.result.columns if done else None,
                    rows=query.result.rows if done else None,
                )
            )
            if tracer.enabled and done:
                spans.append(
                    SimSpan(query.name, query.submit_time, query.latency, query.name)
                )
                for attempt in query.attempts():
                    spans.append(
                        SimSpan(
                            f"hop:{attempt.replica}",
                            attempt.started,
                            attempt.elapsed,
                            query.name,
                            parent=query.name,
                            args={"outcome": attempt.outcome},
                        )
                    )
        sessions = [
            session
            for _, backend in sorted(report.server_reports.items())
            for session in backend.sessions
        ]
        _profile_counters(
            counters, [s.result.profile for s in sessions if s.status == "done"]
        )
        _session_counters(counters, sessions)
        _system_counters(counters, target, report.makespan)
        attempts = [attempt for query in report.queries for attempt in query.attempts()]
        counters["engine.fleet.dispatches"] = sum(report.dispatches.values())
        counters["engine.fleet.failovers"] = report.failovers
        hedges = sum(attempt.outcome == "hedge_loser" for attempt in attempts)
        counters["engine.fleet.hedges"] = hedges
        counters["engine.fleet.server_losses"] = report.server_losses
        per_query = len(attempts) / len(report.queries)
        counters["engine.fleet.attempts_per_query"] = per_query
        return Observation(ops, report.makespan, counters, failures, spans)


class LayerMicro(Workload):
    """The layer micro-suite as a workload: one drive = one suite.

    Its operations are the bandwidth-resource jobs of the suite (the
    pieces with a simulated latency); no query runs, so the public
    counters of the query path are all zero here.
    """

    name = "layer_micro"

    def generate(self, tracer: Tracer) -> None:
        with tracer.span("MicroInputs.generate"):
            self.inputs = perf_micro.MicroInputs.generate(self.seed, self.quick)

    def prepare(self, tracer: Tracer) -> Target:
        return Target(None, [], [])

    def drive(self, target: Target, tracer: Tracer) -> perf_micro.MicroResult:
        with tracer.span("perf_micro.run_suite"):
            return perf_micro.run_suite(self.inputs)

    def observe(self, target: Target, raw, tracer: Tracer) -> Observation:
        ops = [
            Op(
                name=f"{piece}:{index}",
                query=None,
                cls="batch",
                status="done",
                latency=latency,
                bytes=work,
            )
            for index, (piece, latency, work) in enumerate(raw.jobs)
        ]
        # every DES piece's final clock, so each one is in the signature
        makespan = sum(raw.sim_clocks.values())
        spans = [
            SimSpan(piece, 0.0, clock, piece) for piece, clock in raw.sim_clocks.items()
        ]
        return Observation(
            ops, makespan, zero_counters(), sim_spans=spans, micro_rates=raw.rates
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        SsbGpuSmallBlock,
        SsbHybridBigBlock,
        ServeSteady,
        ServeOverload,
        FleetFailover,
        LayerMicro,
    )
}
