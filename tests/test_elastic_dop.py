"""Elastic degree of parallelism: differential correctness + accounting.

The elastic controller changes *how many CPU workers* run a query's
remaining waves, never *what* they compute: every elastic run — shrink
mid-query, grow mid-query, clamped at min/max, resize storms mixed with
preemption — must return exactly the rows of the independent reference
executor, and the admission budget must conserve across every resize
(only the compute delta moves; memory stays charged).

The deterministic forcing trick: the controller's decisions are pure
threshold comparisons against the sampled DRAM utilization, so a policy
with ``target_utilization ~ 0`` always sees "contended" (shrink every
boundary) and one with a target far above 1.0 always sees
"under-utilized" (grow every boundary).  No mocking seam is needed.
"""

import math

import pytest

from repro import ElasticPolicy, EngineServer, ExecutionConfig
from repro.algebra.physical import PlanValidationError
from repro.engine.config import QoS
from repro.ssb import SSB_QUERY_IDS
from scenario import PLANS, Arrival, OpenLoop, Scenario, batch, build, run_scenario

#: forces a shrink at every phase boundary (any nonzero utilization
#: exceeds the target); tiny window so the first boundary already has a
#: closed sample
ALWAYS_SHRINK = ElasticPolicy(target_utilization=1e-9, window_seconds=1e-4)
#: forces a grow at every boundary (utilization can never reach the
#: target, and the grow threshold equals the target)
ALWAYS_GROW = ElasticPolicy(
    target_utilization=50.0, grow_below=1.0, max_dop=12, window_seconds=1e-4
)

STORM_BACKGROUND = ["Q4.1", "Q4.2", "Q3.1", "Q3.2", "Q4.3", "Q3.3"]
STORM_INTERACTIVE = ("Q1.1", "Q1.2", "Q1.3")


def _cpu(workers: int) -> ExecutionConfig:
    return ExecutionConfig.cpu_only(workers, block_tuples=4096)


def _elastic(policy, max_concurrent, arrivals, **scenario) -> Scenario:
    """An elastic server under ``policy`` serving ``arrivals``."""
    server = {"elastic": True, "max_concurrent": max_concurrent}
    if policy is not None:
        server["elastic_policy"] = policy
    return Scenario(arrivals=arrivals, server=server, **scenario)


class TestDifferentialCorrectness:
    """Elastic results == solo reference results, for all 13 queries."""

    def test_shrink_mid_query_matches_reference(self):
        out = run_scenario(
            _elastic(ALWAYS_SHRINK, 3, batch(SSB_QUERY_IDS, _cpu(6)), expect="done")
        )
        assert out.report.resizes == len(SSB_QUERY_IDS)
        # every query shrank: trajectories strictly decrease 6 -> 3
        for path in out.report.dop_trajectories().values():
            assert path[0] == 6
            assert all(b < a for a, b in zip(path, path[1:]))

    def test_grow_mid_query_matches_reference(self):
        out = run_scenario(
            _elastic(ALWAYS_GROW, 2, batch(SSB_QUERY_IDS, _cpu(2)), expect="done")
        )
        assert out.report.resizes == len(SSB_QUERY_IDS)
        for path in out.report.dop_trajectories().values():
            assert path[0] == 2
            assert all(b > a for a, b in zip(path, path[1:]))
            assert max(path) <= 12

    def test_hybrid_queries_resize_cpu_side_only(self):
        """GPU stages are pinned to the hash-table domains built in
        earlier phases; only the CPU worker set is elastic."""
        config = ExecutionConfig.hybrid(6, [0, 1], block_tuples=4096)
        arrivals = batch(SSB_QUERY_IDS[:6], config)
        out = run_scenario(_elastic(ALWAYS_SHRINK, 2, arrivals, expect="done"))
        assert out.report.resizes >= 1
        for session in out.items:
            # the admitted GPU set never changed
            assert session.current_config.gpu_ids == (0, 1)

    def test_gpu_only_queries_are_never_resized(self):
        config = ExecutionConfig.gpu_only([0, 1], block_tuples=4096)
        arrivals = batch(SSB_QUERY_IDS[:4], config)
        out = run_scenario(_elastic(ALWAYS_GROW, 2, arrivals, expect="done"))
        assert out.report.resizes == 0
        assert out.report.dop_trajectories() == {}


class TestClamping:
    def test_min_equals_max_pins_the_dop(self):
        """min_dop == max_dop == admitted dop: the controller has no
        room in either direction, whatever the utilization says."""
        policies = (
            ALWAYS_SHRINK.derive(min_dop=4, max_dop=4),
            ALWAYS_GROW.derive(min_dop=4, max_dop=4),
        )
        for policy in policies:
            arrivals = batch(SSB_QUERY_IDS[:4], _cpu(4))
            out = run_scenario(_elastic(policy, 2, arrivals, expect="done"))
            assert out.report.resizes == 0
            for session in out.items:
                assert session.current_config.cpu_workers == 4

    def test_shrink_stops_at_min_dop(self):
        arrivals = batch(SSB_QUERY_IDS[:4], _cpu(6))
        policy = ALWAYS_SHRINK.derive(min_dop=3)
        out = run_scenario(_elastic(policy, 2, arrivals, expect="done"))
        for path in out.report.dop_trajectories().values():
            assert min(path) >= 3

    def test_grow_is_clamped_by_budget_headroom(self):
        """An always-grow policy can only expand into *freed* capacity:
        the budget's peak never exceeds its core cap, however hard the
        controller pushes."""
        arrivals = batch(SSB_QUERY_IDS[:4], _cpu(4))
        out = run_scenario(
            _elastic(ALWAYS_GROW, 2, arrivals, budget={"cpu_cores": 8}, expect="done")
        )
        assert out.system.budget.peak["cpu_cores"] <= 8.0
        # while both 4-core queries were running the budget was full, so
        # any grow that did happen used capacity a finished query freed
        for session in out.items:
            for _, dop in session.dop_trajectory[1:]:
                assert dop <= 8
        assert out.report.resizes <= len(out.items)

    def test_grow_respects_physical_cores_with_uncapped_budget(self):
        """With no cpu_cores cap in the budget, the growth headroom is
        the machine's cores minus what admitted queries already hold:
        three co-resident dop-8 queries must not collectively grow past
        the 24 physical cores."""
        policy = ALWAYS_GROW.derive(max_dop=24)
        arrivals = batch(SSB_QUERY_IDS[:6], _cpu(8))
        out = run_scenario(_elastic(policy, 3, arrivals, budget={"dram_bytes": 1e15}))
        assert out.system.budget.peak["cpu_cores"] <= 24.0

    def test_grow_never_exceeds_server_cores(self):
        """max_dop above the machine's core count is clamped to it."""
        policy = ALWAYS_GROW.derive(max_dop=4096)
        out = run_scenario(
            _elastic(policy, 1, batch(["Q1.1"], _cpu(23)), expect="done")
        )
        workers = out.sessions["Q1.1"].current_config.cpu_workers
        assert workers <= len(out.system.server.cores)


class TestBudgetAccounting:
    def test_resize_storm_conserves_budget(self):
        """Shrinks, preemption pauses/resumes and open-loop arrivals in
        one drive: the budget must drain to exactly zero afterwards."""
        arrivals = (
            *(
                Arrival(qid, _cpu(6), name=f"bg-{index}", qos=QoS.background())
                for index, qid in enumerate(STORM_BACKGROUND)
            ),
            OpenLoop(
                STORM_INTERACTIVE,
                _cpu(6),
                rate_qps=100.0,
                arrivals=6,
                seed=5,
                qos=QoS.interactive(deadline_seconds=0.2),
            ),
        )
        out = run_scenario(
            _elastic(ALWAYS_SHRINK, 2, arrivals, budget={"cpu_cores": 12})
        )
        assert out.report.resizes >= len(STORM_BACKGROUND)
        budget = out.system.budget
        assert budget.total_allocated["cpu_cores"] == budget.total_released["cpu_cores"]

    def test_shrink_frees_cores_for_queued_sessions(self):
        """The freed compute delta is immediately admissible: with a
        12-core budget and 6-core queries, the third query gets in as
        soon as the first two shrink to 3 workers each."""
        arrivals = tuple(Arrival("Q4.1", _cpu(6), name=f"q{i}") for i in range(3))
        out = run_scenario(
            _elastic(
                ALWAYS_SHRINK.derive(min_dop=3),
                8,
                arrivals,
                budget={"cpu_cores": 12},
                expect="done",
            )
        )
        # the third query was admitted before either of the first two
        # finished — only possible because shrinking released cores
        first, second, third = out.items
        assert third.admit_time < min(first.finish_time, second.finish_time)

    def test_deterministic_for_fixed_workload(self):
        scenario = _elastic(ALWAYS_SHRINK, 3, batch(SSB_QUERY_IDS[:6], _cpu(6)))
        assert run_scenario(scenario).signature() == run_scenario(scenario).signature()


class TestPolicyValidation:
    def test_policy_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="min_dop"):
            ElasticPolicy(min_dop=0)
        with pytest.raises(ValueError, match="max_dop"):
            ElasticPolicy(min_dop=4, max_dop=2)
        with pytest.raises(ValueError, match="target_utilization"):
            ElasticPolicy(target_utilization=0.0)
        with pytest.raises(ValueError, match="grow_below"):
            ElasticPolicy(grow_below=1.5)
        with pytest.raises(ValueError, match="window_seconds"):
            ElasticPolicy(window_seconds=0.0)

    def test_shorthands_and_policy_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            EngineServer(elastic=True, elastic_policy=ElasticPolicy(), min_dop=2)

    def test_knobs_without_elastic_switch_are_rejected(self):
        """Knobs without elastic=True would be silently inert — the
        caller would believe elasticity is active and get fixed dop."""
        with pytest.raises(ValueError, match="elastic=True"):
            EngineServer(max_dop=8)
        with pytest.raises(ValueError, match="elastic=True"):
            EngineServer(elastic_policy=ElasticPolicy(target_utilization=0.7))

    def test_shorthand_knobs_build_the_policy(self):
        server = EngineServer(
            segment_rows=2048,
            elastic=True,
            min_dop=2,
            max_dop=8,
            target_utilization=0.6,
        )
        assert server.elastic_policy == ElasticPolicy(
            min_dop=2, max_dop=8, target_utilization=0.6
        )


class TestStageReDerivation:
    """Stage.with_dop keeps identity where it matters."""

    def test_with_dop_preserves_template_and_signature(self):
        from repro.jit.cache import stage_signature

        server = build(_elastic(None, 1, ()))
        het = server.placer.place(PLANS["Q1.1"], _cpu(6))
        stage = next(s for s in het.all_stages() if s.dop == 6)
        resized = stage.with_dop(3, [0, 12, 1])
        assert resized.stage_id == stage.stage_id
        assert resized.ops is stage.ops
        assert resized.dop == 3 and resized.affinity == [0, 12, 1]
        width = server.engine.catalog.column_widths().__getitem__
        assert stage_signature(resized, width) == stage_signature(stage, width)

    def test_with_dop_validates_arguments(self):
        server = build(_elastic(None, 1, ()))
        het = server.placer.place(PLANS["Q1.1"], _cpu(4))
        stage = next(s for s in het.all_stages() if not s.is_source)
        with pytest.raises(PlanValidationError, match="dop 0"):
            stage.with_dop(0)
        with pytest.raises(PlanValidationError, match="affinity"):
            stage.with_dop(3, [0])

    def test_with_cpu_dop_rebuilds_edges_consistently(self):
        server = build(_elastic(None, 1, ()))
        config = ExecutionConfig.hybrid(6, [0, 1], block_tuples=4096)
        het = server.placer.place(PLANS["Q2.1"], config)
        probe = het.phases[-1]
        resized = probe.with_cpu_dop(3, [0, 12, 1])
        by_id = {s.stage_id: s for s in resized.stages}
        for edge in resized.edges:
            # edges reference the rebuilt stage objects, not stale ones
            assert by_id[edge.producer.stage_id] is edge.producer
            assert by_id[edge.consumer.stage_id] is edge.consumer
        consumers = [s for s in resized.stages if not s.is_source]
        cpu = [s for s in consumers if s.device.value == "cpu"]
        gpu = [s for s in consumers if s.device.value == "gpu"]
        assert all(s.dop == 3 for s in cpu)
        assert all(s.dop == 2 for s in gpu)  # GPU side untouched

    def test_monitor_requires_closed_window(self):
        """Before the first window closes the controller must not act."""
        server = build(_elastic(None, 1, ()))
        assert server._monitor.sample() == {}
        assert server._monitor.dram_utilization() is None


class TestSessionDemandTracking:
    def test_resized_demand_rides_through_preemption(self):
        """A session shrunk to 3 workers then paused must release the
        *resized* compute share — over- or under-releasing would trip
        the budget's conservation check at the end of the drive."""
        arrivals = (
            Arrival("Q4.1", _cpu(6), name="bg0", qos=QoS.background()),
            Arrival("Q4.2", _cpu(6), name="bg1", qos=QoS.background()),
            OpenLoop(
                ("Q1.1",),
                _cpu(6),
                rate_qps=200.0,
                arrivals=3,
                seed=9,
                qos=QoS.interactive(deadline_seconds=0.1),
            ),
        )
        policy = ALWAYS_SHRINK.derive(min_dop=3)
        out = run_scenario(_elastic(policy, 2, arrivals, budget={"cpu_cores": 12}))
        assert out.report.resizes >= 1
        for name in ("bg0", "bg1"):
            assert out.sessions[name].demand.cpu_cores == 3

    def test_resize_updates_demand_only_in_compute(self):
        # a bare drive: the demand *before* the run is the subject
        server = build(_elastic(ALWAYS_SHRINK, 1, ()))
        session = server.submit(PLANS["Q2.1"], _cpu(6))
        before = session.demand
        server.run()
        after = session.demand
        assert after.cpu_cores < before.cpu_cores
        # memory stays charged exactly as admitted
        assert after.dram_bytes == before.dram_bytes
        assert after.hbm_bytes == before.hbm_bytes
        assert after.pcie_bytes == before.pcie_bytes
        assert math.isclose(
            server.budget.total_allocated["cpu_cores"],
            server.budget.total_released["cpu_cores"],
        )
        server.check_conservation()
