"""SLA-aware scheduling: priorities, deadlines, preemption, open-loop load.

Differential anchor: every query that completes — whether it queued,
backfilled past a blocked head, or was paused at a phase boundary and
resumed — must produce exactly the rows of the independent reference
executor.  The rest pins the scheduling semantics themselves: admission
order (priority, then earliest deadline, then submission), backfill
vs FIFO head-of-line blocking, phase-boundary preemption edge cases,
bounded-queue shedding under open-loop Poisson arrivals, and the
budget's over-release guard.
"""

import math

import pytest

from repro import ExecutionConfig, QoS, ResourceBudget
from repro.engine.scheduler import BatchReport, QuerySession, _percentile
from repro.hardware.costmodel import QueryDemand
from scenario import PLANS, Arrival, OpenLoop, Scenario, build, run_scenario


def _config(workers=4):
    return ExecutionConfig.cpu_only(workers, block_tuples=4096)


def _sla(*arrivals, cores=None, **server) -> Scenario:
    """A zero-compile-cost server (so phase boundaries fall where the
    arrival offsets below expect them) under an optional core cap."""
    budget = None if cores is None else {"cpu_cores": cores}
    return Scenario(arrivals, {"compile_seconds": 0.0, **server}, budget=budget)


LOW_THEN_HIGH = (
    Arrival("Q1.1", _config(), name="low", qos=QoS.background()),
    Arrival("Q1.2", _config(), name="high", qos=QoS.interactive()),
)
#: 4 + 4 + 2 cores against a 6-core cap: the head blocks, the small fits
BLOCKED_HEAD = (
    Arrival("Q1.1", _config(4), name="first"),
    Arrival("Q2.1", _config(4), name="head"),
    Arrival("Q1.2", _config(2), name="small"),
)


def _victim(query="Q2.1"):
    return Arrival(query, _config(4), name="victim", qos=QoS.background())


def _hi(at, workers=4, name="hi", query="Q1.1", qos=QoS.interactive()):
    """The mid-run interactive arrival that asks for the victim's cores."""
    return Arrival(query, _config(workers), at=at, name=name, qos=qos)


class TestAdmissionOrdering:
    def test_priority_beats_submission_order(self):
        out = run_scenario(_sla(*LOW_THEN_HIGH, max_concurrent=1))
        low, high = out.sessions["low"], out.sessions["high"]
        assert high.admit_time < low.admit_time
        assert high.finish_time < low.finish_time
        assert low.status == high.status == "done"

    def test_earliest_deadline_first_within_class(self):
        relaxed = QoS(priority=5, deadline_seconds=10.0)
        urgent = QoS(priority=5, deadline_seconds=0.5)
        arrivals = (
            Arrival("Q1.1", _config(), name="relaxed", qos=relaxed),
            Arrival("Q1.2", _config(), name="urgent", qos=urgent),
        )
        out = run_scenario(_sla(*arrivals, max_concurrent=1))
        assert out.sessions["urgent"].admit_time < out.sessions["relaxed"].admit_time

    def test_backfill_lets_small_query_pass_blocked_head(self):
        out = run_scenario(_sla(*BLOCKED_HEAD, cores=6, max_concurrent=8))
        first, blocked_head, small = out.items
        # the 2-core query slipped past the blocked 4-core head and ran
        # alongside the first query; the head waited for cores
        assert small.admit_time == first.admit_time
        assert blocked_head.admit_time > small.admit_time

    def test_backfill_limit_bounds_starvation_of_blocked_head(self):
        """A large equal-priority query must not be starved forever by a
        staggered stream of small backfilling queries (something is
        always running, so the 8-core head never fits): after
        ``backfill_limit`` bypasses the barrier closes, the budget
        drains, and the head is admitted before the remaining smalls."""
        arrivals = (
            Arrival("Q1.1", _config(4), name="s0"),
            Arrival("Q2.1", _config(8), name="big"),
            *(
                Arrival("Q1.2", _config(4), at=0.004 * index, name=f"s{index}")
                for index in range(1, 5)
            ),
        )
        out = run_scenario(
            _sla(*arrivals, cores=8, max_concurrent=8, backfill_limit=2)
        )
        big = out.sessions["big"]
        assert big.status == "done"
        # exactly two bypasses were tolerated, then the barrier held
        assert big.bypassed == 2
        later = [out.sessions["s3"], out.sessions["s4"]]
        assert all(big.admit_time < s.admit_time for s in later)

    def test_fifo_mode_preserves_head_of_line_blocking(self):
        out = run_scenario(
            _sla(*BLOCKED_HEAD, cores=6, max_concurrent=8, admission="fifo")
        )
        # FIFO: nothing passes the blocked head, priorities are ignored
        assert out.sessions["small"].admit_time >= out.sessions["head"].admit_time

    def test_fifo_mode_ignores_priorities(self):
        out = run_scenario(_sla(*LOW_THEN_HIGH, max_concurrent=1, admission="fifo"))
        assert out.sessions["low"].admit_time < out.sessions["high"].admit_time

    def test_qos_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            QoS(priority=1, deadline_seconds=0.0)

    def test_priority_shorthand_reports_under_own_class(self):
        """A QoS with its own label must not pool its latencies into the
        priority-0 'batch' class in per-class reporting."""
        arrivals = (
            Arrival("Q1.1", _config(), name="plain"),
            Arrival("Q1.2", _config(), name="hot", qos=QoS(priority=7, label="hot")),
        )
        out = run_scenario(_sla(*arrivals, max_concurrent=1))
        hot = out.sessions["hot"]
        assert hot.label == "hot"
        # the demand is the scheduling source of truth the queue ranks by
        assert hot.demand.priority == 7
        assert hot.priority == hot.demand.priority
        tails = out.report.latency_percentiles()
        assert set(tails) == {"hot", "batch"}
        assert tails["hot"]["p99"] == hot.latency


class TestPhaseBoundaryPreemption:
    def test_preempted_query_resumes_byte_identical(self):
        """A mid-run interactive arrival pauses the running background
        query at its build->probe boundary; the resumed query's rows are
        byte-identical to the reference and to an unpreempted run."""
        alone = _sla(Arrival("Q2.1", _config(4), name="solo"), max_concurrent=1)
        solo = run_scenario(alone).sessions["solo"]

        hi = _hi(0.002, qos=QoS.interactive(deadline_seconds=1.0))
        out = run_scenario(_sla(_victim(), hi, cores=4, max_concurrent=4))
        victim, hi = out.sessions["victim"], out.sessions["hi"]
        assert victim.status == "done" and hi.status == "done"
        assert victim.preemptions == 1
        assert out.report.preemptions == 1
        assert hi.finish_time < victim.finish_time
        assert hi.deadline_met is True
        # the pause is visible in the victim's profile, not the high-
        # priority query's latency
        assert victim.result.profile.suspended_seconds > 0.0
        assert hi.result.profile.suspended_seconds == 0.0
        # session-level accounting agrees with the executor's, and
        # service time excludes the suspended span
        assert victim.suspended_seconds == pytest.approx(
            victim.result.profile.suspended_seconds
        )
        assert victim.service_seconds == pytest.approx(
            victim.finish_time - victim.admit_time - victim.suspended_seconds
        )
        assert victim.result.rows == solo.result.rows

    def test_preempt_during_last_phase_is_noop(self):
        """A single-phase query is always in its final phase: requesting
        preemption finds no remaining checkpoint and must change
        nothing."""
        out = run_scenario(
            _sla(_victim("single_phase"), _hi(0.001), cores=4, max_concurrent=4)
        )
        victim, hi = out.sessions["victim"], out.sessions["hi"]
        assert victim.status == "done" and hi.status == "done"
        assert victim.preemptions == 0
        assert victim.result.profile.suspended_seconds == 0.0
        # no checkpoint ever fired: the victim ran to completion first
        assert hi.admit_time >= victim.finish_time

    def test_preemption_disabled_keeps_victim_running(self):
        out = run_scenario(
            _sla(_victim(), _hi(0.002), cores=4, max_concurrent=4, preemption=False)
        )
        victim, hi = out.sessions["victim"], out.sessions["hi"]
        assert victim.preemptions == 0
        assert hi.admit_time >= victim.finish_time

    def test_equal_priority_never_preempts(self):
        arrivals = (
            Arrival("Q2.1", _config(4), name="victim"),
            Arrival("Q1.1", _config(4), at=0.002, name="peer"),
        )
        out = run_scenario(_sla(*arrivals, cores=4, max_concurrent=4))
        assert out.sessions["victim"].preemptions == 0

    def test_final_phase_victim_is_skipped_for_preemptable_one(self):
        """A victim that can never yield (single phase, no checkpoint
        ahead) must not absorb the preemption request: the planner skips
        it and asks the join query that still has a boundary to cross."""
        low = QoS.background()
        arrivals = (
            Arrival("Q2.1", _config(4), name="join", qos=low),
            Arrival("wide_single_phase", _config(2), name="last-phase", qos=low),
            _hi(0.002),
        )
        out = run_scenario(_sla(*arrivals, cores=6, max_concurrent=8))
        join_victim, hi = out.sessions["join"], out.sessions["hi"]
        assert out.sessions["last-phase"].preemptions == 0
        assert join_victim.preemptions == 1
        assert hi.finish_time < join_victim.finish_time

    def test_paused_query_keeps_memory_charged(self):
        """Pausing frees compute dimensions only: the victim's DRAM stays
        charged (its hash tables remain resident), and is re-charged for
        nothing on resume — visible in the budget's conservation totals."""
        out = run_scenario(_sla(_victim(), _hi(0.002), cores=4, max_concurrent=4))
        victim, hi = out.sessions["victim"], out.sessions["hi"]
        budget = out.system.budget
        assert victim.preemptions == 1
        # cpu cores: victim admitted + resumed (twice) plus hi once
        expected_cores = victim.demand.cpu_cores * 2 + hi.demand.cpu_cores
        assert budget.total_allocated["cpu_cores"] == expected_cores
        # dram: charged exactly once per query — never released at the
        # pause, never double-charged at the resume
        expected_dram = victim.demand.dram_bytes + hi.demand.dram_bytes
        assert budget.total_allocated["dram_bytes"] == pytest.approx(expected_dram)

    def test_multi_victim_preemption_accumulates_headroom(self):
        """A waiter too big for any single victim's release: backfill
        must not resume the first paused victim while the second's
        preempt request is still in flight, or the campaign can never
        accumulate enough free compute."""
        arrivals = (
            Arrival("Q4.1", _config(6), name="v1", qos=QoS.background()),
            Arrival("Q3.1", _config(6), name="v2", qos=QoS.background()),
            _hi(0.002, workers=12),
        )
        out = run_scenario(_sla(*arrivals, cores=12, max_concurrent=8))
        first, second, hi = (out.sessions[name] for name in ("v1", "v2", "hi"))
        assert first.preemptions == 1 and second.preemptions == 1
        # both pauses were real (no same-instant backfill resume)...
        assert first.suspended_seconds > 0.0
        assert second.suspended_seconds > 0.0
        # ...and they actually served the waiter: it was admitted on the
        # accumulated headroom, not after a victim's natural completion
        assert hi.admit_time < min(first.finish_time, second.finish_time)
        assert all(s.status == "done" for s in (first, second, hi))

    def test_preemption_survives_multiple_rounds(self):
        """Two successive interactive arrivals pause the same background
        query at two different phase boundaries; it still finishes with
        exact results."""
        his = (_hi(0.002, name="hi-0"), _hi(0.030, name="hi-1", query="Q1.2"))
        out = run_scenario(_sla(_victim("Q4.1"), *his, cores=4, max_concurrent=4))
        victim = out.sessions["victim"]
        assert victim.status == "done"
        assert victim.preemptions >= 1


def _overload(arrivals, seed, queries=("Q1.1", "Q2.1", "Q3.1"), **server) -> Scenario:
    """Open-loop Poisson load at 400 q/s onto two 4-core seats."""
    load = OpenLoop(queries, _config(4), rate_qps=400.0, arrivals=arrivals, seed=seed)
    return _sla(load, cores=8, max_concurrent=2, **server)


class TestOpenLoopArrivals:
    def test_bounded_queue_sheds_under_overload(self):
        out = run_scenario(_overload(30, seed=7, max_queue_depth=3))
        report = out.report
        assert len(report.shed) > 0
        assert len(report.completed) + len(report.shed) == 30
        assert not report.failed
        # shed sessions hold nothing: no staging slots or state handles
        # leaked anywhere
        leaked = out.system.engine.blocks.unaccounted_blocks()
        assert all(count == 0 for count in leaked.values())
        for session in report.shed:
            assert session.done.triggered
            assert session.queue_seconds is None

    def test_open_loop_is_deterministic_per_seed(self):
        a, b, c = (
            run_scenario(_overload(20, seed, max_queue_depth=3))
            for seed in (11, 11, 12)
        )
        assert a.signature() == b.signature()
        # a different seed produces a different arrival pattern
        statuses_a = [s.status for s in a.items]
        statuses_c = [s.status for s in c.items]
        assert (a.report.makespan, statuses_a) != (c.report.makespan, statuses_c)

    def test_unbounded_queue_never_sheds(self):
        report = run_scenario(_overload(12, seed=3, queries=("Q1.1", "Q1.2"))).report
        assert not report.shed
        assert len(report.completed) == 12

    def test_open_loop_validates_arguments(self):
        server = build(_sla())
        with pytest.raises(ValueError, match="rate_qps"):
            server.spawn_open_loop(
                [PLANS["Q1.1"]], _config(), rate_qps=0.0, arrivals=1
            )
        with pytest.raises(ValueError, match="arrivals"):
            server.spawn_open_loop(
                [PLANS["Q1.1"]], _config(), rate_qps=1.0, arrivals=0
            )
        with pytest.raises(ValueError, match="plans"):
            server.spawn_open_loop([], _config(), rate_qps=1.0, arrivals=1)


class TestBudgetOverRelease:
    def test_release_of_never_allocated_demand_raises(self):
        budget = ResourceBudget(cpu_cores=8, dram_bytes=1e9)
        with pytest.raises(ValueError, match="over-release"):
            budget.release(QueryDemand(cpu_cores=4))

    def test_double_release_raises_and_leaves_budget_intact(self):
        budget = ResourceBudget(cpu_cores=8)
        demand = QueryDemand(cpu_cores=4, dram_bytes=1e6)
        budget.allocate(demand)
        budget.release(demand)
        with pytest.raises(ValueError, match="over-release"):
            budget.release(demand)
        # the failed release mutated nothing: conservation still holds
        budget.assert_conserved()

    def test_partial_over_release_mutates_nothing(self):
        budget = ResourceBudget(cpu_cores=8, dram_bytes=1e9)
        budget.allocate(QueryDemand(cpu_cores=4))
        # dram fits (0 <= 0) but cpu over-releases: nothing is applied
        with pytest.raises(ValueError, match="over-release"):
            budget.release(QueryDemand(cpu_cores=6))
        assert budget.in_use["cpu_cores"] == 4.0
        assert budget.total_released["cpu_cores"] == 0.0
        budget.release(QueryDemand(cpu_cores=4))
        budget.assert_conserved()


class TestReporting:
    @staticmethod
    def _session(query_id, status, latency, qos, deadline=None):
        session = QuerySession(
            query_id=query_id,
            name=f"s{query_id}",
            plan=None,
            config=None,
            het=None,
            demand=QueryDemand(),
            qos=qos,
            submit_time=0.0,
            deadline=deadline,
        )
        session.status = status
        if status in ("done", "failed", "shed"):
            session.finish_time = latency
        return session

    def test_percentiles_are_nearest_rank(self):
        values = [float(n) for n in range(1, 101)]
        assert _percentile(values, 50) == 50.0
        assert _percentile(values, 95) == 95.0
        assert _percentile(values, 99) == 99.0
        assert _percentile([7.0], 99) == 7.0
        assert math.isnan(_percentile([], 50))

    def test_per_class_percentiles_and_preemptions(self):
        fast = QoS.interactive()
        slow = QoS.background()
        sessions = [self._session(i, "done", 0.01 * (i + 1), fast) for i in range(4)]
        sessions += [self._session(10 + i, "done", 1.0 + i, slow) for i in range(2)]
        sessions[0].preemptions = 2
        report = BatchReport(sessions=sessions, makespan=3.0, throughput_qps=2.0)
        tails = report.latency_percentiles()
        assert tails["interactive"]["p50"] == pytest.approx(0.02)
        assert tails["interactive"]["p99"] == pytest.approx(0.04)
        assert tails["background"]["p99"] == pytest.approx(2.0)
        assert report.preemptions == 2
        assert "interactive" in report.summary()

    def test_summary_renders_dash_for_class_with_no_completions(self):
        """A class whose sessions were ALL shed (or failed) has no
        latency sample: the summary renders a dash for it and
        ``latency_percentiles`` excludes it — never a NaN in the
        benchmark-smoke artifact."""
        qos = QoS.interactive(deadline_seconds=0.1)
        sessions = []
        for i in range(3):
            sessions.append(self._session(i, "shed", 0.0, qos, deadline=0.1))
        sessions.append(self._session(9, "done", 0.5, QoS.batch()))
        report = BatchReport(sessions=sessions, makespan=1.0, throughput_qps=1.0)
        assert "interactive" not in report.latency_percentiles()
        assert "batch" in report.latency_percentiles()
        text = report.summary()
        assert "nan" not in text.lower()
        # the class still appears, with a dash instead of percentiles
        assert "interactive" in text
        assert "p50/p95/p99=-" in text
        # shed sessions render a dash, not their zero "latency"
        shed_lines = []
        for line in text.splitlines():
            if "shed" in line and "latency" in line:
                shed_lines.append(line)
        assert shed_lines and all("latency=-" in line for line in shed_lines)

    def test_summary_handles_all_failed_class(self):
        qos = QoS(priority=3, label="doomed")
        sessions = [self._session(i, "failed", 0.2, qos) for i in range(2)]
        report = BatchReport(sessions=sessions, makespan=1.0, throughput_qps=0.0)
        assert report.latency_percentiles() == {}
        text = report.summary()
        assert "nan" not in text.lower()
        assert "doomed" in text

    def test_deadline_hit_rate_counts_shed_and_failed_as_misses(self):
        qos = QoS(priority=5, deadline_seconds=1.0, label="slo")
        sessions = [
            self._session(0, "done", 0.5, qos, deadline=1.0),
            self._session(1, "done", 2.0, qos, deadline=1.0),
            self._session(2, "shed", 0.0, qos, deadline=1.0),
            self._session(3, "failed", 0.4, qos, deadline=1.0),
        ]
        report = BatchReport(sessions=sessions, makespan=2.0, throughput_qps=1.0)
        # 1 hit out of 4 judged: late, shed and failed all count as misses
        assert report.deadline_hit_rates() == {"slo": pytest.approx(1 / 4)}
        # shed sessions are refusals, not latency samples
        assert len(report.latencies) == 3
