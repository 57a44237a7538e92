"""Multi-query scheduler tests: differential correctness + re-entrancy.

The heart of this suite is differential: every SSB query executed
*concurrently* on a shared server must return exactly the same rows as a
solo run through the independent reference executor, at several
concurrency levels and under mixed device configurations.  (SSB
aggregates are sums of integer-valued products, which are exact in
float64, so equality is bitwise — no rounding tolerance is needed or
used.)

The rest pins the re-entrancy fixes the scheduler depends on: per-query
operator-state handles, per-router routing state, query-id tagging,
admission-budget conservation, and failure isolation between concurrent
queries.
"""

import gc
from collections import Counter

import numpy as np
import pytest

from repro import EngineServer, ExecutionConfig, Proteus, ResourceBudget
from repro.algebra.expressions import col
from repro.algebra.logical import agg_sum, scan
from repro.algebra.physical import RouterPolicy
from repro.core.router import ConsumerGroup, Router
from repro.engine.scheduler import AdmissionError
from repro.hardware.sim import Simulator
from repro.ssb import SSB_QUERY_IDS, load_ssb
from repro.storage import Column, DataType, Table
from scenario import (
    PLANS,
    Arrival,
    ClosedLoop,
    Scenario,
    build,
    reference_rows,
    run_scenario,
    ssb_tables,
)

CONFIGS = [
    ExecutionConfig.cpu_only(6, block_tuples=4096),
    ExecutionConfig.gpu_only([0, 1], block_tuples=4096),
    ExecutionConfig.hybrid(4, [0, 1], block_tuples=4096),
]


def _cpu(workers: int) -> ExecutionConfig:
    return ExecutionConfig.cpu_only(workers, block_tuples=4096)


def _mixed(queries) -> tuple[Arrival, ...]:
    """Each query under the next of the three device configurations."""
    return tuple(
        Arrival(qid, CONFIGS[index % len(CONFIGS)], name=qid)
        for index, qid in enumerate(queries)
    )


#: every dimension finite, so a test caps exactly the one it names
WIDE_BUDGET = {"dram_bytes": 1e15, "hbm_bytes": 1e12, "pcie_bytes": 1e15}


class TestDifferentialCorrectness:
    """Concurrent results == solo reference results, bit for bit."""

    @pytest.mark.parametrize("concurrency", [2, 5, 13])
    def test_all_ssb_queries_concurrent_match_reference(self, concurrency):
        server = {"max_concurrent": concurrency}
        out = run_scenario(Scenario(_mixed(SSB_QUERY_IDS), server, expect="done"))
        # all queries genuinely overlapped: batch finished faster than the
        # sum of individual service times (except at concurrency levels
        # where queueing dominates, overlap still shortens the makespan)
        service = [s.service_seconds for s in out.items]
        assert out.report.makespan < sum(service)

    def test_deterministic_for_fixed_seed(self):
        scenario = Scenario(_mixed(SSB_QUERY_IDS[:6]), {"max_concurrent": 4})
        assert run_scenario(scenario).signature() == run_scenario(scenario).signature()


class TestAdmissionControl:
    def test_budget_caps_concurrent_cores(self):
        arrivals = tuple(Arrival("Q1.1", _cpu(4), name=f"r{i}") for i in range(5))
        budget = {**WIDE_BUDGET, "cpu_cores": 8, "gpu_units": 4}
        out = run_scenario(Scenario(arrivals, {"max_concurrent": 16}, budget=budget))
        # at most two 4-core queries ever ran together
        assert out.system.budget.peak["cpu_cores"] == 8

    def test_oversized_query_rejected_at_submit(self):
        budget = {**WIDE_BUDGET, "cpu_cores": 2, "gpu_units": 0}
        server = build(Scenario(budget=budget))
        with pytest.raises(AdmissionError, match="exceeds server budget"):
            server.submit(PLANS["Q1.1"], _cpu(4))

    def test_queueing_delay_is_recorded(self):
        arrivals = (Arrival("Q1.1", _cpu(4)), Arrival("Q1.1", _cpu(4)))
        first, second = run_scenario(Scenario(arrivals, {"max_concurrent": 1})).items
        assert first.queue_seconds == 0.0
        assert second.queue_seconds > 0.0
        assert second.admit_time >= first.finish_time

    def test_failure_releases_budget_and_isolates_others(self):
        # a bare drive: the failing plan needs two non-SSB tables
        dup = Table("dup_dim", [
            Column.from_values("dk", DataType.INT64, np.array([1, 1, 2])),
            Column.from_values("dv", DataType.INT64, np.array([7, 8, 9])),
        ])
        server = build(Scenario(server={"max_concurrent": 4}))
        server.register(dup)
        fact = Table("dup_fact", [
            Column.from_values("fk", DataType.INT64, np.arange(1, 100) % 3),
            Column.from_values("fv", DataType.INT64, np.arange(99)),
        ])
        server.register(fact)
        bad_plan = (
            scan("dup_fact", ["fk", "fv"])
            .join(scan("dup_dim", ["dk", "dv"]), probe_key="fk",
                  build_key="dk", payload=["dv"])
            .reduce([agg_sum(col("fv"), "s")])
        )
        # hybrid: the GPU build side stages broadcast blocks, so this
        # failure also exercises the staged-slot reclamation path
        config = ExecutionConfig.hybrid(2, [0], block_tuples=1024)
        bad = server.submit(bad_plan, config, name="bad")
        good = server.submit(PLANS["Q1.1"], _cpu(4), name="good")
        server.run()
        assert bad.status == "failed"
        assert bad.error is not None
        assert good.status == "done"
        # staging arenas must be whole again despite the mid-phase death
        assert all(v == 0 for v in
                   server.engine.blocks.unaccounted_blocks().values())
        server.check_conservation()


class TestBudgetArithmetic:
    def test_conservation_is_robust_at_byte_scale(self):
        """Relative tolerances: interleaved float allocate/release at
        realistic (1e11-byte) scales must still conserve exactly."""
        from repro.hardware.costmodel import QueryDemand

        budget = ResourceBudget(
            dram_bytes=2.56e11, hbm_bytes=1.6e10, pcie_bytes=9.6e10,
            cpu_cores=24, gpu_units=4,
        )
        demands = [
            QueryDemand(dram_bytes=1.1e11 / 3, hbm_bytes=1.6e10 / 7,
                        pcie_bytes=3.3e10 / 9, cpu_cores=4, gpu_units=1)
            for _ in range(9)
        ]
        for demand in demands:
            budget.allocate(demand)
        for demand in reversed(demands):
            budget.release(demand)
        assert budget.in_use["dram_bytes"] == 0.0
        budget.assert_conserved()

    def test_quota_slice_is_charged_with_its_parent(self):
        """One call on a tenant's slice covers the whole chain, and only
        charges made through the slice count against it."""
        from repro.hardware.costmodel import QueryDemand

        server = ResourceBudget(cpu_cores=16)
        small = server.quota("tenant 'small' quota", cpu_cores=8)
        other = server.quota("tenant 'other' quota", cpu_cores=8)
        six, four = QueryDemand(cpu_cores=6), QueryDemand(cpu_cores=4)
        small.allocate(six)
        other.allocate(six)
        assert server.in_use["cpu_cores"] == 12.0
        assert small.in_use["cpu_cores"] == other.in_use["cpu_cores"] == 6.0
        # 4 more cores fit the server (12 + 4 <= 16) but not the slice
        assert server.fits(four) and not small.fits(four)
        assert small.blocked_at(four) is small
        assert small.headroom()["cpu_cores"] == 2.0
        # the isolation wall: another tenant's release never unblocks a
        # waiter blocked on its own quota; a same-slice release does
        assert not small.fits_with_release(four, [(other, six)])
        assert small.fits_with_release(four, [(small, six)])
        # ... while at the server level anybody's release helps
        eight = QueryDemand(cpu_cores=8)
        assert server.blocked_at(eight) is server
        assert server.fits_with_release(eight, [(other, six)])
        assert small.too_small_for(QueryDemand(cpu_cores=12)) is small
        assert small.too_small_for(QueryDemand(cpu_cores=20)) is server
        small.release(six)
        other.release(six)
        for budget in (server, small, other):
            budget.assert_conserved()

    def test_drive_window_reports_each_finished_item_once(self):
        from types import SimpleNamespace

        from repro.engine.scheduler import drive_window

        items = [
            SimpleNamespace(query_id=0, finished=True, submit_time=1.0, finish_time=4.0),
            SimpleNamespace(query_id=1, finished=False, submit_time=2.0, finish_time=None),
            SimpleNamespace(query_id=2, finished=True, submit_time=3.0, finish_time=3.5),
        ]
        reported: set[int] = set()
        assert drive_window(items, reported) == ([items[0], items[2]], 3.0)
        items[1].finished, items[1].finish_time = True, 9.0
        # the next drive sees only what finished since, never the rest again
        assert drive_window(items, reported) == ([items[1]], 7.0)
        assert drive_window(items, reported) == ([], 0.0)

    def test_unspecified_budget_dimensions_are_unlimited(self):
        """ResourceBudget(cpu_cores=8) must not silently zero the other
        dimensions and reject every query touching them."""
        arrivals = (Arrival("Q1.1", CONFIGS[2]),)
        server, budget = {"max_concurrent": 4}, {"cpu_cores": 8}
        run_scenario(Scenario(arrivals, server, budget=budget, expect="done"))

    def test_engine_kwargs_rejected_with_existing_engine(self):
        """EngineServer must not silently drop engine options."""
        engine = Proteus(segment_rows=2048)
        with pytest.raises(ValueError, match="no effect"):
            EngineServer(engine=engine, segment_rows=1024)
        with pytest.raises(ValueError, match="no effect"):
            EngineServer(engine=engine, cache_policy=None)
        # scheduler options still work with an existing engine
        server = EngineServer(engine=engine, max_concurrent=2)
        assert server.max_concurrent == 2

    def test_latencies_keyed_uniquely_despite_duplicate_names(self):
        arrivals = (
            Arrival("Q1.1", _cpu(3), name="same"),
            Arrival("Q1.2", _cpu(3), name="same"),
        )
        report = run_scenario(Scenario(arrivals, {"max_concurrent": 2})).report
        assert len(report.latencies) == 2
        assert report.mean_latency > 0.0


class TestClosedLoopClients:
    def test_dead_client_is_surfaced_not_swallowed(self):
        """A client whose later submission is rejected must fail the run
        loudly — its remaining queries were never submitted."""
        from repro.engine.scheduler import SchedulerError

        # a bare drive: the client changes its config mid-loop
        budget = {**WIDE_BUDGET, "cpu_cores": 4, "gpu_units": 0}
        server = build(Scenario(server={"max_concurrent": 4}, budget=budget))

        def greedy_client():
            # first query fits; the second asks for more cores than the
            # budget will ever have -> AdmissionError inside the client
            session = server.submit(PLANS["Q1.1"], _cpu(2), name="greedy-0")
            yield session.done
            server.submit(PLANS["Q1.2"], _cpu(8), name="greedy-1")

        proc = server.sim.process(greedy_client(), name="client:greedy")
        server._clients.append(proc)
        with pytest.raises(SchedulerError, match="died mid-loop"):
            server.run()
        # the aborted drive consumed its sessions: the next drive's
        # report must not be skewed by them
        assert server.last_report is not None
        assert len(server.last_report.completed) == 1
        fresh = server.submit(PLANS["Q1.3"], _cpu(2), name="fresh")
        report = server.run()
        assert [s.name for s in report.sessions] == ["fresh"]
        assert report.makespan == fresh.latency
        server.check_conservation()

    def test_clients_resubmit_after_completion(self):
        flight = ("Q1.1", "Q1.2", "Q1.3")
        arrivals = (
            ClosedLoop(flight, _cpu(3), think_seconds=0.005, name="alice"),
            ClosedLoop(flight, _cpu(3), name="bob"),
        )
        report = run_scenario(Scenario(arrivals, {"max_concurrent": 4})).report
        assert len(report.completed) == 6
        # closed loop: a client's queries never overlap with themselves
        by_client = {}
        for session in report.sessions:
            by_client.setdefault(session.name.split("-")[0], []).append(session)
        for sessions in by_client.values():
            ordered = sorted(sessions, key=lambda s: s.submit_time)
            for earlier, later in zip(ordered, ordered[1:]):
                assert later.submit_time >= earlier.finish_time


class TestWarmServerLatency:
    def test_concurrent_identical_queries_both_pay_compilation(self):
        """A pipeline becomes cache-visible only after its simulated
        compile latency: two identical queries admitted together on a
        cold server must BOTH pay compilation — the second cannot finish
        before the first's compilation would even have completed."""
        from repro.hardware.costmodel import DEFAULT_COMPILE_SECONDS

        arrivals = tuple(Arrival("Q1.1", _cpu(3), name=name) for name in "ab")
        a, b = run_scenario(Scenario(arrivals, {"max_concurrent": 2})).items
        assert a.compiled_fresh == b.compiled_fresh > 0
        compile_charge = a.compiled_fresh * DEFAULT_COMPILE_SECONDS
        assert a.latency >= compile_charge
        assert b.latency >= compile_charge

    def test_reports_cover_only_their_own_drive(self):
        arrivals = (Arrival("Q1.1", _cpu(3)),)
        cold = run_scenario(Scenario(arrivals, {"max_concurrent": 2}))
        first, second = cold.report, cold.then(Arrival("Q1.2", _cpu(3))).report
        assert len(first.sessions) == 1 and len(second.sessions) == 1
        assert first.sessions[0].query_id != second.sessions[0].query_id
        # second drive's makespan is exactly its own session's span, not
        # the server's lifetime
        assert second.makespan == second.sessions[0].latency

    def test_repeated_query_skips_compilation(self):
        arrivals = (Arrival("Q2.1", _cpu(4), name="cold"),)
        first = run_scenario(Scenario(arrivals, {"max_concurrent": 1}))
        second = first.then(Arrival("Q2.1", _cpu(4), name="warm"))
        cold, warm = first.sessions["cold"], second.sessions["warm"]
        assert cold.compiled_fresh > 0
        assert warm.compiled_fresh == 0
        assert warm.latency < cold.latency
        assert warm.result.rows == cold.result.rows

    def test_gpu_pipelines_charge_more_compile_latency(self):
        """The per-device compile-cost model: the same query compiled
        for the GPUs pays ~5-10x the per-pipeline latency of its
        CPU-only shape — no longer one flat constant per miss."""
        from repro.hardware.costmodel import DEFAULT_COMPILE_SECONDS

        arrivals = (Arrival("Q1.1", _cpu(3), name="cpu"),)
        first = run_scenario(Scenario(arrivals, {"max_concurrent": 1}))
        second = first.then(Arrival("Q1.1", CONFIGS[1], name="gpu"))
        cpu, gpu = first.sessions["cpu"], second.sessions["gpu"]
        assert cpu.compiled_fresh > 0 and gpu.compiled_fresh > 0
        cpu_per_stage = cpu.compile_seconds_charged / cpu.compiled_fresh
        gpu_per_stage = gpu.compile_seconds_charged / gpu.compiled_fresh
        assert 5.0 <= gpu_per_stage / cpu_per_stage <= 10.0
        # the charge is real simulated time, and at least the old flat
        # constant per fresh pipeline (the base anchors the minimum)
        assert gpu.latency >= gpu.compile_seconds_charged
        assert cpu.compile_seconds_charged >= \
            cpu.compiled_fresh * DEFAULT_COMPILE_SECONDS

    def test_batch_report_carries_per_tier_cache_stats(self):
        """The per-batch cache report describes residency: lookups,
        size/capacity and the hottest entries, not just hit/miss."""
        arrivals = (Arrival("Q1.1", _cpu(3)), Arrival("Q1.1", _cpu(3)))
        report = run_scenario(Scenario(arrivals, {"max_concurrent": 2})).report
        cache = report.cache
        assert cache["lookups"] == cache["hits"] + cache["misses"]
        assert cache["size"] > 0 and cache["capacity"] > 0
        assert isinstance(cache["top_entries"], list)
        assert report.recompile_seconds > 0
        assert "recompile cost" in report.summary()


class TestReentrancyRegressions:
    """Pin the fixes that made phase networks re-entrant."""

    def test_interleaved_queries_share_one_simulator(self):
        """Two execute_process generators interleave on one sim and both
        finish with correct, independent state (the old executor kept
        operator-state handles on the *instance*, so one query's cleanup
        freed the other's hash tables)."""
        engine = Proteus(segment_rows=2048)
        load_ssb(engine, tables=ssb_tables())
        config = _cpu(4)
        results = {}

        def run(tag, qid):
            het = engine.placer.place(PLANS[qid], config)
            raw = yield from engine.executor.execute_process(
                het, config, query_id=tag
            )
            results[tag] = engine._collect(het.collect, raw)

        engine.sim.process(run("qa", "Q1.1"), name="qa")
        engine.sim.process(run("qb", "Q2.1"), name="qb")
        engine.sim.run()
        assert sorted(results["qa"].rows) == sorted(reference_rows("Q1.1"))
        assert sorted(results["qb"].rows) == sorted(reference_rows("Q2.1"))
        for manager in engine.executor.memory_managers.values():
            assert manager.live_handles == 0

    def test_priced_routers_hold_their_own_unit_stats(self):
        """Routing state is private to each router: calibrating one priced
        router on a shared simulator leaves another's untouched."""
        sim = Simulator()
        from repro.algebra.physical import (
            OpPackSink, SegmentSource, Stage,
        )
        from repro.hardware.costmodel import BlockStats
        from repro.hardware.topology import DeviceType

        def stage(name, dop):
            return Stage(name=name, device=DeviceType.CPU,
                         ops=[OpPackSink(["x"])],
                         source=SegmentSource("t", ["x"]), dop=dop)

        producer = stage("prod", 1)

        def priced_router(name):
            groups = [ConsumerGroup(stage(f"{name}{i}", 2), ["cpu:0"] * 2)
                      for i in range(2)]
            return Router(sim, producer, groups, RouterPolicy.LOAD_BALANCE)

        router_a, router_b = priced_router("a"), priced_router("b")
        router_a.calibrate(BlockStats(tuples_in=2, cpu_cycles=4.0))
        assert (router_a.unit_stats.cpu_cycles, router_b.unit_stats) == (2.0, None)

    def test_consumer_groups_do_not_share_queue_lists(self):
        """Guard against mutable-default sharing across ConsumerGroups."""
        from repro.algebra.physical import OpPackSink, SegmentSource, Stage
        from repro.hardware.topology import DeviceType

        stage = Stage(name="s", device=DeviceType.CPU, ops=[OpPackSink(["x"])],
                      source=SegmentSource("t", ["x"]), dop=2)
        one = ConsumerGroup(stage, ["cpu:0", "cpu:1"])
        two = ConsumerGroup(stage, ["cpu:0", "cpu:1"])
        assert one.instance_queues is not two.instance_queues
        assert one.instance_assigned is not two.instance_assigned
        one.instance_queues.append("sentinel")
        assert two.instance_queues == []

    def test_routers_are_tagged_with_query_ids(self):
        sim = Simulator()
        from repro.algebra.physical import OpPackSink, SegmentSource, Stage
        from repro.hardware.topology import DeviceType

        stage = Stage(name="probe", device=DeviceType.CPU,
                      ops=[OpPackSink(["x"])],
                      source=SegmentSource("t", ["x"]), dop=1)
        router = Router(sim, stage, [ConsumerGroup(stage, ["cpu:0"])],
                        RouterPolicy.UNION, query_id="q7")
        assert router.query_id == "q7"
        assert router.name.startswith("q7:")

    def test_a_served_drive_leaves_nothing_to_the_cyclic_gc(self):
        """A phase dies with its query: on a warm server, a clean drive of
        hybrid, GPU-only and CPU-only queries leaves no ``repro`` object
        (router, consumer group, mem-move, queue) that only the cyclic
        GC can free.  Workers call their router; no hook on a group holds
        the router or the group."""
        arrivals = _mixed(["Q1.1", "Q2.1", "Q3.1", "Q4.1"])
        warm = run_scenario(Scenario(arrivals, {"max_concurrent": 2}))
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            warm.then(*arrivals)
            freed = gc.collect()
            left = Counter(
                type(obj).__qualname__
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro.")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not left, f"{freed} objects left to the cyclic GC: {dict(left)}"

    def test_state_handles_freed_after_failed_query(self):
        """A failing query must release exactly its own state; the next
        query on the same executor starts clean."""
        engine = Proteus(segment_rows=2048)
        load_ssb(engine, tables=ssb_tables())
        dup = Table("dup_dim2", [
            Column.from_values("dk", DataType.INT64, np.array([5, 5])),
            Column.from_values("dv", DataType.INT64, np.array([1, 2])),
        ])
        engine.register(dup)
        fact = Table("f2", [
            Column.from_values("fk", DataType.INT64, np.arange(20) % 6),
            Column.from_values("fv", DataType.INT64, np.arange(20)),
        ])
        engine.register(fact)
        bad = (
            scan("f2", ["fk", "fv"])
            .join(scan("dup_dim2", ["dk", "dv"]), probe_key="fk",
                  build_key="dk", payload=["dv"])
            .reduce([agg_sum(col("fv"), "s")])
        )
        config = ExecutionConfig.cpu_only(2, block_tuples=1024)
        from repro.engine.executor import QueryError

        with pytest.raises(QueryError):
            engine.query(bad, config)
        for manager in engine.executor.memory_managers.values():
            assert manager.live_handles == 0
        result = engine.query(PLANS["Q1.1"], _cpu(4))
        assert sorted(result.rows) == sorted(reference_rows("Q1.1"))


class TestDemoScript:
    def test_multiquery_demo_smoke(self):
        import importlib.util
        import os

        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "multiquery_demo.py")
        spec = importlib.util.spec_from_file_location("multiquery_demo", path)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        out = demo.main(physical_sf=0.002, verbose=False)
        assert len(out["concurrent"].completed) == len(demo.BATCH_QUERIES)
        assert len(out["serial"].completed) == len(demo.BATCH_QUERIES)
        assert out["speedup"] > 1.0
