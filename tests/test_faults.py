"""Chaos-tier tests: fault injection, typed failures, bounded retry.

Three layers:

* **unit** — :meth:`Server.fail_device` poisons every resource of the
  lost GPU (compute slots, PCIe link, HBM, memory node) so queued and
  in-flight work fails with the typed
  :class:`~repro.hardware.topology.DeviceLostError`;
  :func:`~repro.engine.faults.classify_failure` maps exception chains
  to retryability; the mem-move's straggler hook and DMA deadline trip
  a typed :class:`~repro.core.mem_move.TransferTimeout`;
* **placement** — :meth:`HeterogeneousPlacer.place` with
  ``exclude_devices`` never places a stage on a dead GPU, and refuses
  (typed :class:`PlacementError`) when nothing survives;
* **integration** — a GPU killed mid-query on a serving
  :class:`EngineServer` classifies as retryable, the session re-enters
  admission on a CPU-only placement, and returns rows byte-identical
  to the fault-free reference with all budgets and staging arenas
  conserved.  Without a :class:`RetryPolicy` the failure stays
  terminal but typed.
"""

import numpy as np
import pytest

from repro import ExecutionConfig, Proteus, QoS
from repro.algebra.physical import DeviceType
from repro.algebra.placer import PlacementError
from repro.core.mem_move import MemMove, TransferTimeout
from repro.engine.executor import QueryError
from repro.engine.failover import BreakerPolicy, CircuitBreaker
from repro.engine.faults import (
    DeviceLossFault,
    FaultPlan,
    RetryPolicy,
    ServerLostError,
    ServerStallTimeout,
    SpuriousAbortFault,
    StragglerFault,
    classify_failure,
)
from repro.engine.tenancy import Tenant
from repro.hardware.costmodel import CostModel
from repro.hardware.sim import Interrupt, Simulator
from repro.hardware.specs import PAPER_SERVER
from repro.hardware.topology import DeviceLostError, Server
from repro.memory.block import Block, BlockHandle
from repro.memory.managers import BlockManagerSet
from repro.ssb import load_ssb
from scenario import (
    PLANS,
    Arrival,
    Outcome,
    Scenario,
    build,
    run_scenario,
    ssb_tables,
)

GPU = ExecutionConfig.gpu_only([0, 1], block_tuples=4096)


def _gpu_query(query="Q1.1", **server) -> Scenario:
    """One GPU-placed query, named by its id, on a server built with
    ``server`` keywords (the fault plan, the retry policy)."""
    return Scenario((Arrival(query, GPU, name=query),), server=server)


# ---------------------------------------------------------------------------
# Unit: device loss poisons every resource of the GPU
# ---------------------------------------------------------------------------


class TestFailDevice:
    def _machine(self):
        sim = Simulator()
        return sim, Server.paper_machine(sim)

    def test_poisons_memory_compute_and_links(self):
        _, server = self._machine()
        assert server.fail_device(0, reason="test")
        gpu = server.gpus[0]
        assert not gpu.alive
        assert server.failed_gpus == {0}
        with pytest.raises(DeviceLostError):
            gpu.memory.allocate(1024)
        grant = gpu.compute.acquire()
        assert grant.triggered and not grant.ok
        assert isinstance(grant.value, DeviceLostError)
        job = gpu.link.bandwidth.submit(1e6, label="late")
        assert job.triggered and not job.ok
        assert isinstance(job.value, DeviceLostError)

    def test_idempotent_and_validated(self):
        _, server = self._machine()
        assert server.fail_device(1)
        assert not server.fail_device(1)
        with pytest.raises(ValueError):
            server.fail_device(99)

    def test_survivor_untouched(self):
        _, server = self._machine()
        server.fail_device(0)
        gpu = server.gpus[1]
        assert gpu.alive
        gpu.memory.allocate(1024)
        assert gpu.compute.acquire().ok

    def test_in_flight_dma_poisoned(self):
        """A consumer parked on ``transfer_done`` gets the typed error
        (never a deadlock) when the device dies mid-transfer."""
        sim, server = self._machine()
        blocks = BlockManagerSet(server)
        mem_move = MemMove(sim, server, blocks, CostModel(PAPER_SERVER))
        handle = BlockHandle(
            Block({"a": np.zeros(1 << 16, dtype=np.int64)}, "cpu:0")
        )
        moved = mem_move.schedule(handle, "gpu:0")
        outcomes = []

        def consumer():
            try:
                yield moved.transfer_done
                outcomes.append("ok")
            except DeviceLostError as error:
                outcomes.append(error)

        def killer():
            yield sim.timeout(1e-6)
            server.fail_device(0, reason="mid-flight")

        sim.process(consumer())
        sim.process(killer())
        sim.run()
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], DeviceLostError)

    def test_failed_transfer_nobody_waits_on(self):
        """A transfer whose query was aborted fails with no consumer
        parked on it: the drive ends quietly, and the abort returns its
        staging slot to the arena."""
        sim, server = self._machine()
        blocks = BlockManagerSet(server)
        mem_move = MemMove(sim, server, blocks, CostModel(PAPER_SERVER))
        handle = BlockHandle(Block({"a": np.zeros(1 << 16, dtype=np.int64)}, "cpu:0"))
        moved = mem_move.schedule(handle, "gpu:0")
        assert blocks.unaccounted_blocks()["gpu:0"] == 1

        def killer():
            yield sim.timeout(1e-6)
            server.fail_device(0, reason="mid-flight")

        sim.process(killer())
        sim.run()
        assert moved.transfer_done.triggered and not moved.transfer_done.ok
        assert isinstance(moved.transfer_done.value, DeviceLostError)
        assert mem_move.staged_outstanding("gpu:0") == 1
        mem_move.abort_outstanding()
        assert mem_move.staged_outstanding() == 0
        assert set(blocks.unaccounted_blocks().values()) == {0}


# ---------------------------------------------------------------------------
# Unit: the failure classifier
# ---------------------------------------------------------------------------


class TestClassifyFailure:
    def test_direct_typed_errors(self):
        assert classify_failure(DeviceLostError("x")) == ("device_lost", True)
        assert classify_failure(TransferTimeout("x")) == (
            "transfer_timeout", True,
        )
        assert classify_failure(Interrupt("chaos")) == ("aborted", True)
        assert classify_failure(ValueError("x")) == ("fatal", False)

    def test_walks_cause_chain(self):
        try:
            try:
                raise DeviceLostError("gpu0 lost")
            except DeviceLostError as root:
                raise QueryError("process p failed") from root
        except QueryError as wrapped:
            assert classify_failure(wrapped) == ("device_lost", True)

    def test_walks_context_chain(self):
        try:
            try:
                raise TransferTimeout("slow")
            except TransferTimeout:
                raise RuntimeError("cleanup tripped")  # implicit __context__
        except RuntimeError as wrapped:
            assert classify_failure(wrapped) == ("transfer_timeout", True)

    def test_fatal_chain_stays_fatal(self):
        try:
            try:
                raise KeyError("missing column")
            except KeyError as root:
                raise QueryError("process p failed") from root
        except QueryError as wrapped:
            assert classify_failure(wrapped) == ("fatal", False)

    def test_cyclic_chain_terminates(self):
        error = RuntimeError("a")
        error.__context__ = error
        assert classify_failure(error) == ("fatal", False)

    def test_server_level_errors_are_typed_not_retryable(self):
        # not retryable at the single server: the fleet re-dispatches
        # the shard query to another replica instead
        assert classify_failure(ServerLostError("srv0 died")) == (
            "server_lost", False,
        )
        assert classify_failure(ServerStallTimeout("srv1 hung")) == (
            "stall_timeout", False,
        )

    def test_server_lost_through_interrupt_cause(self):
        # the fleet cancels in-flight sessions with the typed error as
        # the Interrupt cause — classification must see through it
        interrupt = Interrupt(ServerLostError("srv0 lost mid-drive"))
        assert classify_failure(interrupt) == ("server_lost", False)
        interrupt = Interrupt(ServerStallTimeout("watchdog fired"))
        assert classify_failure(interrupt) == ("stall_timeout", False)

    def test_server_errors_through_wrapped_chains(self):
        try:
            try:
                raise ServerLostError("srv2 lost")
            except ServerLostError as root:
                raise QueryError("driver torn down") from root
        except QueryError as wrapped:
            assert classify_failure(wrapped) == ("server_lost", False)
        try:
            try:
                raise ServerStallTimeout("dispatch unresolved")
            except ServerStallTimeout:
                raise RuntimeError("cleanup tripped")  # implicit context
        except RuntimeError as wrapped:
            assert classify_failure(wrapped) == ("stall_timeout", False)


# ---------------------------------------------------------------------------
# Unit: the per-backend circuit breaker (clock injected, no simulator)
# ---------------------------------------------------------------------------


class _ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _breaker(threshold=2, open_seconds=0.01):
    clock = _ManualClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=threshold, open_seconds=open_seconds),
        clock,
    )
    return breaker, clock


class TestCircuitBreaker:
    def test_opens_at_failure_threshold_only(self):
        breaker, _ = _breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker, _ = _breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_open_half_opens_after_the_window(self):
        breaker, clock = _breaker(open_seconds=0.01)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now = 0.0099
        assert breaker.state == "open"
        clock.now = 0.01
        assert breaker.state == "half_open"
        assert breaker.allow()

    def test_half_open_probe_success_closes(self):
        breaker, clock = _breaker(open_seconds=0.01)
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 0.02
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens_with_fresh_window(self):
        breaker, clock = _breaker(open_seconds=0.01)
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 0.02
        assert breaker.state == "half_open"
        breaker.record_failure()
        assert breaker.state == "open"
        # the open window restarts from the re-open, not the first trip
        clock.now = 0.025
        assert breaker.state == "open"
        clock.now = 0.03
        assert breaker.state == "half_open"

    def test_force_open_latches_forever(self):
        breaker, clock = _breaker(open_seconds=0.01)
        breaker.force_open()
        clock.now = 10.0
        assert breaker.state == "open"
        breaker.record_success()
        assert breaker.state == "open"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_transition_log_is_timestamped(self):
        breaker, clock = _breaker(threshold=1, open_seconds=0.01)
        breaker.record_failure()
        clock.now = 0.01
        breaker.record_success()  # half-open trial succeeds
        assert breaker.transitions == [
            (0.0, "open"), (0.01, "half_open"), (0.01, "closed"),
        ]

    def test_reading_the_state_changes_nothing(self):
        breaker, clock = _breaker(threshold=1, open_seconds=0.01)
        breaker.record_failure()
        clock.now = 0.015
        assert breaker.state == "half_open"
        assert breaker.state == "half_open"
        assert breaker.transitions == [(0.0, "open")]
        # the step is taken, and stamped, by the next dispatch decision
        clock.now = 0.02
        assert breaker.allow()
        assert breaker.transitions == [(0.0, "open"), (0.02, "half_open")]

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError, match="open_seconds"):
            BreakerPolicy(open_seconds=0.0)


# ---------------------------------------------------------------------------
# Unit: straggler hook and DMA deadline
# ---------------------------------------------------------------------------


class TestTransferTimeout:
    def _env(self, **kwargs):
        sim = Simulator()
        server = Server.paper_machine(sim)
        blocks = BlockManagerSet(server)
        return sim, MemMove(
            sim, server, blocks, CostModel(PAPER_SERVER), **kwargs
        )

    def _transfer(self, sim, mem_move):
        handle = BlockHandle(
            Block({"a": np.zeros(1 << 16, dtype=np.int64)}, "cpu:0")
        )
        moved = mem_move.schedule(handle, "gpu:0")
        outcomes = []

        def consumer():
            try:
                yield moved.transfer_done
                outcomes.append("ok")
            except Exception as error:
                outcomes.append(error)

        sim.process(consumer())
        sim.run()
        return outcomes

    def test_straggler_multiplies_latency(self):
        baseline_sim, baseline = self._env()
        assert self._transfer(baseline_sim, baseline) == ["ok"]
        fast = baseline_sim.now
        slow_sim, slow = self._env(straggler=lambda: 8.0)
        assert self._transfer(slow_sim, slow) == ["ok"]
        assert slow_sim.now == pytest.approx(8.0 * fast)

    def test_deadline_trips_typed_timeout(self):
        sim, mem_move = self._env(straggler=lambda: 1000.0, dma_timeout=1e-4)
        outcomes = self._transfer(sim, mem_move)
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], TransferTimeout)
        assert "deadline" in str(outcomes[0])

    def test_deadline_spares_fast_transfers(self):
        sim, mem_move = self._env(dma_timeout=10.0)
        assert self._transfer(sim, mem_move) == ["ok"]

    def test_dma_timeout_validated(self):
        with pytest.raises(ValueError):
            self._env(dma_timeout=0.0)

    def _drive_with_stragglers(self, probability, max_attempts):
        """End to end: the plan's deadline reaches every query's mem-move."""
        plan = FaultPlan(
            seed=7,
            straggler=StragglerFault(probability=probability, multiplier=1000.0),
            transfer_timeout_seconds=1e-4,
        )
        retry = RetryPolicy(max_attempts=max_attempts)
        out = run_scenario(_gpu_query(fault_plan=plan, retry_policy=retry))
        return out.sessions["Q1.1"]

    def test_plan_deadline_fails_a_query_typed_after_bounded_retries(self):
        session = self._drive_with_stragglers(1.0, max_attempts=2)
        assert session.status == "failed"
        assert session.error_class == "transfer_timeout"
        assert session.retried_classes == ["transfer_timeout"]
        assert session.attempts == 2

    def test_plan_deadline_retries_through_rare_stragglers(self):
        session = self._drive_with_stragglers(0.05, max_attempts=3)
        assert session.status == "done"
        assert session.retried_classes == ["transfer_timeout"] * 2


# ---------------------------------------------------------------------------
# Placement: dead devices are excluded, typed refusal when nothing is left
# ---------------------------------------------------------------------------


class TestPlacerExcludesDeadDevices:
    def test_surviving_gpu_only(self):
        engine = Proteus(segment_rows=2048)
        load_ssb(engine, tables=ssb_tables())
        config = ExecutionConfig.hybrid(4, [0, 1], block_tuples=4096)
        het = engine.placer.place(PLANS["Q1.1"], config, exclude_devices={0})
        gpu_stages = [
            s for s in het.all_stages() if s.device is DeviceType.GPU
        ]
        assert gpu_stages, "hybrid placement lost its GPU side entirely"
        for stage in gpu_stages:
            assert 0 not in stage.affinity

    def test_all_devices_excluded_is_typed(self):
        engine = Proteus(segment_rows=2048)
        load_ssb(engine, tables=ssb_tables())
        with pytest.raises(PlacementError, match="excluded"):
            engine.placer.place(PLANS["Q1.1"], GPU, exclude_devices={0, 1})

    def test_no_exclusions_is_the_identity(self):
        engine = Proteus(segment_rows=2048)
        load_ssb(engine, tables=ssb_tables())
        base = engine.placer.place(PLANS["Q1.1"], GPU)
        same = engine.placer.place(PLANS["Q1.1"], GPU, exclude_devices=())
        assert [s.name for s in base.all_stages()] == [
            s.name for s in same.all_stages()
        ]


# ---------------------------------------------------------------------------
# Integration: the retry loop on a serving EngineServer
# ---------------------------------------------------------------------------


#: GPU 0 dies half a millisecond into the drive
GPU0_LOST = FaultPlan(
    seed=7, device_losses=(DeviceLossFault(gpu_id=0, at_seconds=5e-4),)
)


PHASE_BOUNDARY_LOSS = _gpu_query(
    "Q3.1",
    fault_plan=FaultPlan(
        seed=11, device_losses=(DeviceLossFault(gpu_id=1, at_phase_boundary=1),)
    ),
    retry_policy=RetryPolicy(),
)
SPURIOUS_ABORT = _gpu_query(
    compile_seconds=0.0,
    fault_plan=FaultPlan(seed=3, aborts=(SpuriousAbortFault(at_seconds=1e-3),)),
    retry_policy=RetryPolicy(),
)


class TestSchedulerRetry:
    def test_device_loss_retries_cpu_only_byte_identical(self):
        retry = RetryPolicy(max_attempts=3)
        out = run_scenario(_gpu_query(fault_plan=GPU0_LOST, retry_policy=retry))
        session, report = out.sessions["Q1.1"], out.report
        assert session.status == "done"
        assert session.retried_classes == ["device_lost"]
        assert session.fell_back
        assert not (session.current_config or session.config).uses_gpu
        assert report.faults["device_losses"] == 1
        assert report.retries == 1
        assert report.fallbacks == 1

    def test_without_retry_policy_failure_is_terminal_but_typed(self):
        out = run_scenario(_gpu_query(fault_plan=GPU0_LOST))
        session = out.sessions["Q1.1"]
        assert session.status == "failed"
        assert session.error_class == "device_lost"
        assert session.error is not None
        assert classify_failure(session.error) == ("device_lost", True)
        assert "[device_lost]" in out.report.summary()

    def test_exhausted_attempts_fail_typed(self):
        retry = RetryPolicy(max_attempts=1)
        out = run_scenario(_gpu_query(fault_plan=GPU0_LOST, retry_policy=retry))
        session = out.sessions["Q1.1"]
        assert session.status == "failed"
        assert session.error_class == "device_lost"
        assert session.attempts == 1

    def test_retry_beyond_tenant_quota_ends_campaign(self):
        """A retry's degraded shape is held to the walls a first
        submission is: the CPU-only fallback needs 16 cores against the
        tenant's 12-core quota, so the campaign ends with the ORIGINAL
        typed failure instead of parking forever on re-admission."""
        server = {
            "tenants": (Tenant("small", compute_quota=0.5),),
            "fault_plan": GPU0_LOST,
            "retry_policy": RetryPolicy(max_attempts=3, fallback_cpu_workers=16),
        }
        arrivals = (Arrival("Q1.1", GPU, name="Q1.1", tenant="small"),)
        # used to raise SchedulerError: batch stalled
        out = run_scenario(Scenario(arrivals, server))
        session = out.sessions["Q1.1"]
        assert session.status == "failed"
        assert session.error_class == "device_lost"
        assert session.retried_classes == []
        assert out.report.sessions == [session]

    def test_phase_boundary_loss_retries(self):
        loss = DeviceLossFault(gpu_id=1, at_phase_boundary=1)
        plan = FaultPlan(seed=11, device_losses=(loss,))
        out = run_scenario(
            _gpu_query("Q3.1", fault_plan=plan, retry_policy=RetryPolicy())
        )
        session = out.sessions["Q3.1"]
        assert session.status == "done"
        assert session.retried_classes == ["device_lost"]
        assert out.report.faults["device_losses"] == 1

    def test_spurious_abort_is_retried(self):
        abort = SpuriousAbortFault(at_seconds=1e-3)
        server = {
            "compile_seconds": 0.0,
            "fault_plan": FaultPlan(seed=3, aborts=(abort,)),
            "retry_policy": RetryPolicy(),
        }
        out = run_scenario(_gpu_query(**server))
        session = out.sessions["Q1.1"]
        assert session.status == "done"
        assert session.retried_classes == ["aborted"]
        assert not session.fell_back  # no device died: same placement
        assert out.report.faults["spurious_aborts"] == 1

    def test_straggler_runs_are_deterministic_per_seed(self):
        straggler = StragglerFault(probability=0.5, multiplier=6.0)
        scenario = _gpu_query("Q2.1", fault_plan=FaultPlan(seed=5, straggler=straggler))
        first, second = run_scenario(scenario), run_scenario(scenario)
        assert first.sessions["Q2.1"].status == "done"
        assert first.report.faults["stragglers"] > 0
        assert first.signature() == second.signature()

    def test_survivors_unaffected_by_siblings_device_loss(self):
        """A CPU-only sibling sharing the server with the victim query
        completes untouched while the victim retries."""
        cpu = ExecutionConfig.cpu_only(4, block_tuples=4096)
        arrivals = (
            Arrival("Q1.1", GPU, name="victim"),
            Arrival("Q2.1", cpu, name="bystander"),
        )
        server = {
            "max_concurrent": 4,
            "fault_plan": GPU0_LOST,
            "retry_policy": RetryPolicy(),
        }
        out = run_scenario(Scenario(arrivals, server))
        victim, bystander = out.sessions["victim"], out.sessions["bystander"]
        assert victim.status == "done"
        assert victim.retries == 1
        assert bystander.status == "done"
        assert bystander.retries == 0

    @pytest.mark.parametrize(
        "scenario",
        [PHASE_BOUNDARY_LOSS, SPURIOUS_ABORT],
        ids=["phase-boundary-loss", "spurious-abort"],
    )
    def test_a_retry_is_one_more_admission(self, scenario):
        """One session that retries once, and whose latency is the
        makespan.  A fresh driver per attempt moves no clock: against a
        retry that parked its driver and resumed it on re-admission
        (``617b8eb``) it adds exactly one event, the finished driver's
        own completion, which nothing waits on.  The drive's makespan
        and event count are its entry in ``tests/signatures.json``."""
        out = run_scenario(scenario)
        signature = out.signature()
        assert out.report.retries == 1
        assert [latency for _, _, latency, _ in signature[1]] == [signature[0]]

    def test_retried_session_keeps_its_first_admission(self):
        """On an elastic server a retried hybrid query keeps its first
        ``admit_time`` and its one admission entry in the dop
        trajectory, and ``_drivers`` holds each attempt's live driver."""
        hybrid = ExecutionConfig.hybrid(4, [0, 1], block_tuples=4096)
        server = build(
            Scenario(
                server={
                    "elastic": True,
                    "fault_plan": GPU0_LOST,
                    "retry_policy": RetryPolicy(),
                }
            )
        )
        session = server.submit(PLANS["Q1.1"], hybrid, name="Q1.1")
        drivers, admitted = [], []

        def watch():
            while not session.finished:
                if session.status == "running":
                    _, process = server._drivers[session.query_id]
                    if not drivers or drivers[-1] is not process:
                        assert process.is_alive
                        drivers.append(process)
                        admitted.append(session.admit_time)
                yield server.sim.timeout(1e-5)

        server.sim.process(watch(), name="watch")
        Outcome(Scenario(), server, server.run()).check()
        assert session.status == "done"
        assert session.retried_classes == ["device_lost"]
        assert len(drivers) == 2 and not drivers[0].is_alive
        assert admitted == [0.0, 0.0] == [session.admit_time] * 2
        trajectory = session.dop_trajectory
        assert trajectory[0] == (0.0, hybrid.cpu_workers)
        assert len(trajectory) == 1 + session.resizes
        assert session.query_id not in server._drivers


# ---------------------------------------------------------------------------
# EngineServer.cancel: one rule per state, whatever the cause
# ---------------------------------------------------------------------------


CPU4 = ExecutionConfig.cpu_only(4, block_tuples=4096)


def _queued(server):
    """One slot, taken by a first query: the target never gets in."""
    server.submit(PLANS["Q1.1"], CPU4, name="first")
    target = server.submit(PLANS["Q1.2"], CPU4, name="target")
    return target, lambda: True


def _running(server):
    target = server.submit(PLANS["Q2.1"], CPU4, name="target")
    # inside execute_process, with operator state and staging live
    inside = server.executor.checkpoints_remaining
    return target, lambda: inside(target.tag) is not None


def _paused(server):
    """A background query paused at its build->probe boundary by an
    interactive arrival that needs its cores."""
    target = server.submit(PLANS["Q2.1"], CPU4, name="target", qos=QoS.background())

    def arrive():
        yield server.sim.timeout(0.002)
        server.submit(PLANS["Q1.1"], CPU4, name="hi", qos=QoS.interactive())

    server.sim.process(arrive(), name="arrive")
    return target, lambda: target.status == "paused"


def _retried(server):
    """GPU 0 dies under the target; an interactive query that arrived
    after the target was admitted takes the freed slot, so the retry
    waits in the queue."""
    target = server.submit(PLANS["Q1.1"], GPU, name="target")

    def arrive():
        yield server.sim.timeout(1e-4)
        server.submit(PLANS["Q2.1"], CPU4, name="blocker", qos=QoS.interactive())

    server.sim.process(arrive(), name="arrive")
    return target, lambda: target.status == "queued" and target.retries == 1


CANCEL_STATES = {
    "queued": (_queued, {"max_concurrent": 1}, None, "fatal"),
    "running": (_running, {}, None, "aborted"),
    "paused": (_paused, {"compile_seconds": 0.0}, {"cpu_cores": 4}, "aborted"),
    "retried": (
        _retried,
        {
            "max_concurrent": 1,
            "preemption": False,
            "fault_plan": GPU0_LOST,
            "retry_policy": RetryPolicy(max_attempts=2),
        },
        None,
        "fatal",
    ),
}


class TestCancel:
    @pytest.mark.parametrize("state", sorted(CANCEL_STATES))
    @pytest.mark.parametrize("cause", ["exception", "string"])
    def test_cancel_fails_the_session_once_typed(self, state, cause):
        """A session with a live driver (running, paused) is interrupted
        and typed from the cause; a queued one (never admitted, or
        waiting after a retry) fails at the edge: an exception cause
        is its error, a string a fatal ``SchedulerError``."""
        setup, server_kwargs, budget, string_class = CANCEL_STATES[state]
        scenario = Scenario(server=server_kwargs, budget=budget)
        server = build(scenario)
        target, ready = setup(server)
        reason = ServerLostError("backend lost") if cause == "exception" else "operator"
        fired = []
        target.done.add_callback(fired.append)
        cancelled = []

        def watch():
            while not ready():
                assert not target.finished, "the state to cancel never came"
                yield server.sim.timeout(1e-5)
            assert target.status == {"retried": "queued"}.get(state, state)
            cancelled.append(server.cancel(target, reason))

        server.sim.process(watch(), name="watch")
        report = server.run()
        Outcome(scenario, server, report).check()
        assert cancelled == [True]
        assert server.cancel(target, reason) is False
        assert target.status == "failed"
        want = "server_lost" if cause == "exception" else string_class
        assert target.error_class == want
        assert fired == [target.done]
        failed = report.metrics["repro_sessions_total"]["values"]
        assert sum(v for k, v in failed.items() if 'status="failed"' in k) == 1
        if state == "retried":
            assert target.attempts == 2 and target.retries == 1


# ---------------------------------------------------------------------------
# Satellites 1 + 3: chained error detail and phase attribution
# ---------------------------------------------------------------------------


class TestFailureAttribution:
    def test_session_error_preserves_cause_chain(self):
        out = run_scenario(_gpu_query(fault_plan=GPU0_LOST))
        session = out.sessions["Q1.1"]
        assert session.status == "failed"
        chain = []
        exc = session.error
        while exc is not None:
            chain.append(exc)
            exc = exc.__cause__ or exc.__context__
        assert any(isinstance(e, DeviceLostError) for e in chain)

    def test_summary_names_the_failed_process(self):
        out = run_scenario(_gpu_query(fault_plan=GPU0_LOST))
        detail = out.sessions["Q1.1"].failure_detail()
        assert detail.startswith(("process ", "phase "))
        assert "DeviceLostError" in detail
        assert detail in out.report.summary()

    def test_wave_interrupt_attributed_to_phase_not_question_mark(self):
        """An interrupt delivered to the wave wait itself (no failed
        worker process) must name the executing phase, never ``"?"``."""
        plan = FaultPlan(aborts=(SpuriousAbortFault(at_seconds=1e-3),))
        out = run_scenario(_gpu_query(compile_seconds=0.0, fault_plan=plan))
        session = out.sessions["Q1.1"]
        assert session.status == "failed"
        assert session.error_class == "aborted"
        assert isinstance(session.error, QueryError)
        assert '"?"' not in str(session.error)
        assert "?" not in (session.error.process or "")
        assert session.error.phase
        assert "phase" in session.failure_detail() or (
            session.error.process is not None
        )
