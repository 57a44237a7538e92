"""Multi-query throughput: concurrent serving beats serial on one server.

The scenario family the scheduler opens up: mixed SSB batches served
concurrently on one shared simulated server.  The fast tier checks the
headline claims — a mixed batch of 8+ SSB queries runs concurrently with
solo-identical results, strictly higher aggregate throughput than serial
execution of the same batch, a >= 90 % pipeline-cache hit rate once the
workload repeats, and (the SLA headline) a high-priority class whose p99
latency under priority/deadline scheduling with phase-boundary preemption
beats the same queries under FIFO admission at saturation.  The slow tier
(``--runslow``) runs the saturation sweep and a closed-loop client
scenario at a larger scale.
"""

import pytest

from repro.engine.config import CachePolicy, ExecutionConfig, QoS
from repro.engine.scheduler import Tenant
from scenario import Arrival, ClosedLoop, OpenLoop, Scenario, Tables, run_scenario

#: logical scale factor for the elastic-dop scenario: big enough that
#: execution (not router init) dominates, so worker counts matter
ELASTIC_LOGICAL_SF = 30

#: >= 8 mixed queries: every SSB flight, both repeated
MIXED_BATCH = ["Q1.1", "Q2.1", "Q3.1", "Q4.1", "Q1.2", "Q2.2", "Q3.2", "Q4.2"]

#: the saturation mix for the SLA scenario: long join-heavy background
#: queries that monopolise a FIFO server...
SLA_BACKGROUND = ["Q4.1", "Q4.2", "Q4.3", "Q3.1", "Q4.1", "Q3.2", "Q4.2", "Q3.3"]
#: ...while short flight-1 queries arrive open-loop with a latency SLO
SLA_INTERACTIVE = ("Q1.1", "Q1.2", "Q1.3")


def _tables(settings, logical_sf=None) -> Tables:
    return Tables(0.01, 42, logical_sf, settings.segment_rows)


def _configs(settings):
    base = ExecutionConfig.cpu_only(6, block_tuples=settings.block_tuples)
    return [
        base,
        base.derive(cpu_workers=4, gpu_ids=(0, 1)),  # hybrid
        base.derive(cpu_workers=0, gpu_ids=(0, 1)),  # gpu-only
    ]


def _mixed(settings, queries, round_tag="") -> tuple[Arrival, ...]:
    """Each query under the next of the three device configurations."""
    configs = _configs(settings)
    return tuple(
        Arrival(qid, configs[index % 3], name=f"{qid}{round_tag or f'#{index}'}")
        for index, qid in enumerate(queries)
    )


def _batch(settings, queries, max_concurrent) -> Scenario:
    return Scenario(
        _mixed(settings, queries),
        server={"max_concurrent": max_concurrent},
        tables=_tables(settings),
    )


class TestMixedBatchConcurrency:
    """The acceptance scenario: 8 mixed SSB queries, one shared server."""

    def test_concurrent_results_match_solo_reference(self, settings):
        out = run_scenario(_batch(settings, MIXED_BATCH, 8))
        assert len(out.report.completed) == len(MIXED_BATCH)

    def test_concurrent_throughput_strictly_beats_serial(self, settings):
        concurrent = run_scenario(_batch(settings, MIXED_BATCH, 8)).report
        serial = run_scenario(_batch(settings, MIXED_BATCH, 1)).report
        print(
            f"\nconcurrent: {concurrent.makespan:.4f}s "
            f"({concurrent.throughput_qps:.2f} q/s)  |  "
            f"serial: {serial.makespan:.4f}s "
            f"({serial.throughput_qps:.2f} q/s)"
        )
        assert concurrent.makespan < serial.makespan
        assert concurrent.throughput_qps > serial.throughput_qps

    def test_repeated_workload_hits_pipeline_cache(self, settings):
        """Serve the batch, then serve it twice more on the warm server:
        the repeated rounds must run >= 90 % out of the pipeline cache."""
        out = run_scenario(_batch(settings, MIXED_BATCH, 8))
        stats = out.system.executor.pipeline_cache.stats
        hits_before, misses_before = stats.hits, stats.misses
        for round_index in range(2):
            out = out.then(*_mixed(settings, MIXED_BATCH, f"@r{round_index}"))
        repeated_hits = stats.hits - hits_before
        repeated_misses = stats.misses - misses_before
        hit_rate = repeated_hits / max(1, repeated_hits + repeated_misses)
        print(
            f"\nrepeated-workload cache: {repeated_hits} hits / "
            f"{repeated_misses} misses (hit rate {hit_rate:.1%})"
        )
        assert hit_rate >= 0.90


def _saturated(background, interactive, slo, rate_qps, qos, **scenario) -> Scenario:
    """Eight join-heavy background queries up front plus six short
    interactive ones arriving open-loop (Poisson, seeded) with an SLO."""
    arrivals = (
        *(
            Arrival(qid, background, name=f"{qid}#bg{index}", qos=qos)
            for index, qid in enumerate(SLA_BACKGROUND)
        ),
        OpenLoop(
            SLA_INTERACTIVE,
            interactive,
            rate_qps=rate_qps,
            arrivals=6,
            seed=5,
            qos=QoS.interactive(deadline_seconds=slo),
            name="inter",
        ),
    )
    return Scenario(arrivals, **scenario)


class TestSlaTailLatency:
    """Priority scheduling rescues the interactive tail at saturation.

    Identical mixed traffic — eight join-heavy background queries
    submitted up front plus six short interactive queries arriving
    open-loop (Poisson, seeded) with a 200 ms SLO — served twice: once
    under the original FIFO admission, once under the SLA scheduler
    (priority + earliest-deadline ordering, backfill, phase-boundary
    preemption).  The SLA run must cut the interactive p99 while every
    completed query still matches the reference executor exactly (the
    runner's check, on both drives).
    """

    def test_high_priority_p99_beats_fifo_at_saturation(self, settings):
        config = ExecutionConfig.cpu_only(6, block_tuples=settings.block_tuples)
        fifo, sla = (
            run_scenario(
                _saturated(
                    config,
                    config,
                    slo=0.2,
                    rate_qps=50.0,
                    qos=QoS.background(),
                    server={"max_concurrent": 2, "admission": admission},
                    budget={"cpu_cores": 12},
                    tables=_tables(settings),
                )
            ).report
            for admission in ("fifo", "sla")
        )
        fifo_tail = fifo.latency_percentiles()["interactive"]
        sla_tail = sla.latency_percentiles()["interactive"]
        print(
            f"\ninteractive p50/p95/p99 — "
            f"fifo: {fifo_tail['p50']:.4f}/{fifo_tail['p95']:.4f}/"
            f"{fifo_tail['p99']:.4f}s  |  "
            f"sla: {sla_tail['p50']:.4f}/{sla_tail['p95']:.4f}/"
            f"{sla_tail['p99']:.4f}s  "
            f"({sla.preemptions} preemption(s), deadline hits "
            f"{sla.deadline_hit_rates()['interactive']:.0%} vs "
            f"{fifo.deadline_hit_rates()['interactive']:.0%})"
        )
        # the SLA headline: strictly lower interactive tail latency
        assert sla_tail["p99"] < fifo_tail["p99"]
        assert sla_tail["p50"] < fifo_tail["p50"]
        # preemption visibly fired and the SLO went from missed to met
        assert sla.preemptions >= 1
        assert (
            sla.deadline_hit_rates()["interactive"]
            > fifo.deadline_hit_rates()["interactive"]
        )
        # scheduling never trades correctness for latency
        for report in (fifo, sla):
            assert len(report.completed) == len(SLA_BACKGROUND) + 6


class TestElasticThroughput:
    """Elastic dop beats fixed-dop SLA scheduling at saturation.

    The same saturated mixed traffic — eight join-heavy background
    queries admitted with a conservative ``cpu_workers=3`` (admission
    picks the dop with zero knowledge of what else will run) plus six
    short interactive queries arriving open-loop with a latency SLO —
    served twice at logical SF30: once with the worker set fixed at
    admission, once with ``elastic=True`` so the scheduler grows
    under-utilized queries' remaining waves (bounded by ``max_dop`` and
    the budget) and shrinks contended ones.  Elastic mode must deliver
    strictly higher *batch* throughput while the interactive p99 does
    not regress, and every completed query must still match the
    reference executor exactly (the runner's check, on both drives).
    """

    @staticmethod
    def _batch_throughput(report):
        batch = [s for s in report.completed if s.label == "batch"]
        span = max(s.finish_time for s in batch) - min(s.submit_time for s in batch)
        return len(batch) / span

    def test_elastic_beats_fixed_dop_at_saturation(self, settings):
        server = {"max_concurrent": 3, "admission": "sla", "compile_seconds": 0.0}
        fixed, elastic = (
            run_scenario(
                _saturated(
                    ExecutionConfig.cpu_only(3, block_tuples=settings.block_tuples),
                    ExecutionConfig.cpu_only(4, block_tuples=settings.block_tuples),
                    slo=2.0,
                    rate_qps=2.0,
                    qos=QoS.batch(),
                    server={**server, **knobs},
                    tables=_tables(settings, ELASTIC_LOGICAL_SF),
                )
            ).report
            for knobs in ({}, {"elastic": True, "max_dop": 8})
        )
        fixed_tp = self._batch_throughput(fixed)
        elastic_tp = self._batch_throughput(elastic)
        fixed_tail = fixed.latency_percentiles()["interactive"]
        elastic_tail = elastic.latency_percentiles()["interactive"]
        print(
            f"\nelastic-vs-fixed batch throughput — "
            f"fixed: {fixed_tp:.2f} q/s  |  elastic: {elastic_tp:.2f} q/s "
            f"({(elastic_tp / fixed_tp - 1) * 100:+.0f}%, "
            f"{elastic.resizes} resize(s))"
        )
        print(
            f"interactive p50/p99 — "
            f"fixed: {fixed_tail['p50']:.4f}/{fixed_tail['p99']:.4f}s  |  "
            f"elastic: {elastic_tail['p50']:.4f}/{elastic_tail['p99']:.4f}s"
        )
        print(
            "dop trajectories: "
            + ", ".join(
                f"{tag}:{'->'.join(map(str, path))}"
                for tag, path in sorted(elastic.dop_trajectories().items())
            )
        )
        # the elastic headline: strictly more batch throughput at
        # saturation, with no interactive tail-latency regression
        assert elastic.resizes >= 1
        assert elastic_tp > fixed_tp
        assert elastic_tail["p99"] <= fixed_tail["p99"]
        # elasticity never trades correctness for throughput
        for report in (fixed, elastic):
            assert len(report.completed) == len(SLA_BACKGROUND) + 6


#: the cache-policy scenario: a hot GPU mix recompiled every round plus a
#: CPU churn that cycles more pipeline shapes than the cache holds
CACHE_HOT_GPU = ["Q4.1", "Q4.2"]
CACHE_CHURN = ["Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q3.1", "Q3.2", "Q3.3"]
CACHE_CAPACITY = 14


class TestCachePolicyEfficacy:
    """Cost-aware eviction and cross-server sharing on a repeated mix.

    The repeated-batch trace — an expensive-to-compile GPU mix plus a
    churn of CPU shapes against a capacity-constrained pipeline cache —
    is exactly where flat LRU hurts: every round's churn pushes the GPU
    pipelines out, so every round recompiles them at ~8x the CPU
    per-pipeline latency.  The ``cost_aware`` (GDSF) policy keeps them
    resident and must deliver strictly lower total simulated recompile
    cost.  The sharing scenario attaches two servers to one
    :class:`SharedCacheDirectory`: the second server serves its whole
    mix out of the first server's published compilations (cross-server
    hits > 0, zero fresh compiles) with byte-identical results.
    """

    @staticmethod
    def _round(settings, round_index) -> tuple[Arrival, ...]:
        gpu_cfg = ExecutionConfig.gpu_only([0, 1], block_tuples=settings.block_tuples)
        cpu_cfg = ExecutionConfig.cpu_only(4, block_tuples=settings.block_tuples)
        mix = [(qid, gpu_cfg) for qid in CACHE_HOT_GPU]
        mix += [(qid, cpu_cfg) for qid in CACHE_CHURN]
        return tuple(
            Arrival(qid, cfg, name=f"{qid}#r{round_index}.{index}")
            for index, (qid, cfg) in enumerate(mix)
        )

    def _scenario(self, settings, eviction, shared_cache=None) -> Scenario:
        policy = CachePolicy(capacity=CACHE_CAPACITY, eviction=eviction)
        return Scenario(
            self._round(settings, 0),
            server={"max_concurrent": 4, "cache_policy": policy},
            shared_cache=shared_cache,
            tables=_tables(settings),
            expect="done",
        )

    def test_cost_aware_eviction_beats_lru_recompile_cost(self, settings):
        costs = {}
        hit_rates = {}
        for eviction in ("lru", "cost_aware"):
            out = run_scenario(self._scenario(settings, eviction))
            costs[eviction] = out.report.recompile_seconds
            for round_index in (1, 2):
                out = out.then(*self._round(settings, round_index))
                costs[eviction] += out.report.recompile_seconds
            hit_rates[eviction] = out.system.executor.pipeline_cache.stats.hit_rate
        print(
            f"\ncache-policy recompile cost (3 rounds, capacity "
            f"{CACHE_CAPACITY}) — "
            f"lru: {costs['lru']:.4f}s (hit rate {hit_rates['lru']:.1%})  |  "
            f"cost_aware: {costs['cost_aware']:.4f}s "
            f"(hit rate {hit_rates['cost_aware']:.1%}, "
            f"{(1 - costs['cost_aware'] / costs['lru']) * 100:.0f}% saved)"
        )
        # the acceptance headline: strictly lower total simulated
        # recompile cost under cost-aware eviction
        assert costs["cost_aware"] < costs["lru"]
        assert hit_rates["cost_aware"] > hit_rates["lru"]

    def test_shared_directory_serves_cross_server_hits(self, settings):
        # sharing compiled artefacts never trades correctness: the runner
        # holds both servers' answers byte-identical to the reference
        scenario = self._scenario(settings, "cost_aware", (256, "cost_aware"))
        a = run_scenario(scenario)
        directory = a.system.executor.pipeline_cache.shared
        b = run_scenario(scenario, shared_cache=directory)
        cost_a, cost_b = a.report.recompile_seconds, b.report.recompile_seconds
        snap = directory.snapshot()
        print(
            f"\nshared cache directory — server A recompiled "
            f"{cost_a:.4f}s, server B {cost_b:.4f}s; "
            f"{snap['cross_server_hits']} cross-server hit(s), "
            f"{snap['size']}/{snap['capacity']} resident"
        )
        # server B never compiles: every shape was published by server A
        assert cost_a > 0
        assert cost_b == 0.0
        assert snap["cross_server_hits"] > 0
        assert all(s.compiled_fresh == 0 for s in b.items)


@pytest.mark.slow
class TestSaturationSweep:
    """Throughput vs admitted concurrency: rises, then the shared DRAM
    and PCIe resources saturate and the curve flattens."""

    def test_throughput_rises_then_saturates(self, settings):
        batch = MIXED_BATCH * 3  # 24 queries
        throughput = {}
        for level in (1, 2, 4, 8, 16):
            report = run_scenario(_batch(settings, batch, level)).report
            throughput[level] = report.throughput_qps
        print(
            "\nconcurrency -> queries/s: "
            + ", ".join(f"{level}: {qps:.2f}" for level, qps in throughput.items())
        )
        assert throughput[2] > throughput[1]
        assert throughput[4] > throughput[2]
        assert throughput[16] >= throughput[8] * 0.8  # flat at saturation
        # the sweep never trades correctness: ratios stay finite/positive
        assert all(qps > 0 for qps in throughput.values())

    def test_closed_loop_clients_saturate_gracefully(self, settings):
        configs = _configs(settings)
        flights = [
            ("Q1.1", "Q2.1", "Q3.1", "Q4.1"),
            ("Q1.2", "Q2.2", "Q3.2", "Q4.2"),
            ("Q1.3", "Q2.3", "Q3.3", "Q3.4"),
        ]
        clients = tuple(
            ClosedLoop(
                qids,
                configs[client_index % len(configs)],
                think_seconds=0.002,
                name=f"client{client_index}",
            )
            for client_index, qids in enumerate(flights)
        )
        report = run_scenario(
            Scenario(clients, server={"max_concurrent": 6}, tables=_tables(settings))
        ).report
        assert len(report.completed) == sum(len(f) for f in flights)


class TestTenantIsolation:
    """The multi-tenant acceptance scenario: noisy neighbor contained.

    A victim tenant serves four interactive queries; a noisy tenant
    floods the same server with cheap batch queries.  Served three ways
    on identical fresh servers: the victim **solo**, the mixed traffic
    **without** isolation (everyone untenanted, FIFO-of-priorities
    only), and the mixed traffic **with** isolation (the noisy tenant
    rate-unlimited but quota-capped at a quarter of the compute budget,
    the victim weighted 2:1).  The contracts: with isolation on, the
    noisy tenant's in-flight demand never exceeds its quota slice, the
    victim's p99 stays within 20 % of its solo run, aggregate
    throughput is preserved, and every query in every run still returns
    byte-identical rows (the runner's check, on all three drives).
    """

    VICTIM = ["Q1.1", "Q2.1", "Q3.1", "Q1.2"]
    NOISY = ["Q1.1", "Q1.2", "Q1.3", "Q1.1", "Q1.2", "Q1.3", "Q1.1", "Q1.2"]

    def _victim(self, settings, tenant=None) -> tuple[Arrival, ...]:
        config = ExecutionConfig.cpu_only(6, block_tuples=settings.block_tuples)
        qos = QoS.interactive()
        return tuple(
            Arrival(qid, config, name=f"victim-{qid}#{i}", qos=qos, tenant=tenant)
            for i, qid in enumerate(self.VICTIM)
        )

    def _noisy(self, settings, tenant=None) -> tuple[Arrival, ...]:
        config = ExecutionConfig.cpu_only(2, block_tuples=settings.block_tuples)
        qos = QoS.background()
        return tuple(
            Arrival(qid, config, name=f"noisy-{qid}#{i}", qos=qos, tenant=tenant)
            for i, qid in enumerate(self.NOISY)
        )

    @staticmethod
    def _p99(sessions):
        ordered = sorted(s.latency for s in sessions if s.status == "done")
        assert ordered, "no completed victim sessions"
        return ordered[-1] if len(ordered) < 100 else ordered[int(0.99 * len(ordered))]

    def test_noisy_neighbor_contained(self, settings):
        def serve(arrivals, tenants=()):
            return run_scenario(
                Scenario(
                    arrivals,
                    server={"max_concurrent": 4, "tenants": tenants},
                    budget={"cpu_cores": 12},
                    tables=_tables(settings),
                    expect="done",
                )
            )

        def split(out):
            victim = [s for s in out.items if s.name.startswith("victim")]
            return victim, [s for s in out.items if s.name.startswith("noisy")]

        # 1. victim alone: the baseline tail
        solo_p99 = self._p99(serve(self._victim(settings)).items)

        # 2. mixed traffic, no isolation
        bare = serve(self._victim(settings) + self._noisy(settings))
        bare_report = bare.report
        bare_victim, bare_noisy = split(bare)

        # 3. mixed traffic, isolation on: noisy quota-capped at 1/4 of
        # the 12-core budget, victim weighted up
        tenants = (
            Tenant("victim", weight=2.0),
            Tenant("noisy", weight=1.0, compute_quota=0.25),
        )
        iso = serve(
            self._victim(settings, "victim") + self._noisy(settings, "noisy"), tenants
        )
        iso_report = iso.report
        iso_victim, _ = split(iso)

        iso_p99 = self._p99(iso_victim)
        bare_p99 = self._p99(bare_victim)
        print(
            f"\nvictim p99 — solo: {solo_p99:.4f}s | "
            f"no isolation: {bare_p99:.4f}s | "
            f"isolated: {iso_p99:.4f}s"
        )
        print(
            f"aggregate throughput — no isolation: "
            f"{bare_report.throughput_qps:.2f} q/s | isolated: "
            f"{iso_report.throughput_qps:.2f} q/s"
        )

        # the capped tenant's in-flight demand never exceeded its slice
        noisy_budget = iso.system.tenant_states["noisy"].budget
        assert noisy_budget.peak["cpu_cores"] <= 3.0 + 1e-9
        assert iso_report.tenants["noisy"]["budget_peak"]["cpu_cores"] <= 3.0

        # without isolation the noisy tenant's in-flight demand really
        # did exceed the slice the quota would have allowed — the cap
        # binds, this scenario is not vacuous
        events = sorted(
            [(s.admit_time, 2) for s in bare_noisy]
            + [(s.finish_time, -2) for s in bare_noisy]
        )
        in_flight = peak_cores = 0
        for _, delta in events:
            in_flight += delta
            peak_cores = max(peak_cores, in_flight)
        assert peak_cores > 3

        # the victim's tail under attack stays within 20 % of its solo
        # run, and never drifts far from the free-for-all's
        assert iso_p99 <= 1.2 * solo_p99
        assert iso_p99 <= bare_p99 * 1.1

        # capping the noisy tenant must not torpedo aggregate service
        assert len(iso_report.completed) == len(bare_report.completed)
        assert iso_report.throughput_qps >= 0.7 * bare_report.throughput_qps
