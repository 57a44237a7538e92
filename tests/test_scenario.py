"""The scenario harness itself: a drive is a value, and the runner's
always-on invariants fail loudly, naming the scenario."""

import dataclasses
import heapq

import pytest

import fingerprint
from fingerprint import Fingerprint
from repro import CachePolicy, ExecutionConfig, ResourceBudget, SharedCacheDirectory
from repro.engine.faults import DeviceLossFault, FaultPlan, RetryPolicy
from repro.hardware.sim import Simulator
from repro.ssb import SSB_QUERY_IDS
from scenario import ClosedLoop, OpenLoop, Scenario, batch, run_scenario

CPU4 = ExecutionConfig.cpu_only(4, block_tuples=4096)
GPU = ExecutionConfig.gpu_only([0, 1], block_tuples=4096)

#: a capped budget under open-loop load, and a shared cache tier under a
#: churned L1: the two live objects a scenario must describe, not hold
CAPPED = Scenario(
    (*batch(SSB_QUERY_IDS[:4], CPU4), OpenLoop(("Q1.1",), CPU4, 200.0, 4, seed=3)),
    server={"max_concurrent": 4, "max_queue_depth": 3},
    budget={"cpu_cores": 8},
)
SHARED = Scenario(
    batch(SSB_QUERY_IDS[:6], GPU),
    server={"max_concurrent": 2, "cache_policy": CachePolicy(capacity=4)},
    shared_cache=(8, "lru"),
)


@pytest.mark.parametrize("scenario", [CAPPED, SHARED], ids=["budget", "shared-cache"])
def test_same_scenario_same_signature(scenario):
    """Fails if a live ``ResourceBudget`` / ``SharedCacheDirectory`` is
    ever stored in the value: its lifetime totals / entries would leak
    into the second run and move the signature (taken before it)."""
    first = run_scenario(scenario).signature()
    assert first == run_scenario(scenario).signature()


def test_a_scenario_holds_no_live_object():
    for live in (ResourceBudget(cpu_cores=8), SharedCacheDirectory(), [CPU4]):
        with pytest.raises(TypeError, match="plain data"):
            Scenario(server={"budget": live})
    # ... while every config / policy / fault dataclass of the stack passes
    Scenario(
        (ClosedLoop(("Q1.1",), CPU4),),
        server={
            "fault_plan": FaultPlan(device_losses=(DeviceLossFault(0, 1e-3),)),
            "retry_policy": RetryPolicy(),
        },
    )


def test_wrong_expectation_fails_with_the_scenario_in_the_message():
    scenario = Scenario(batch(["Q1.1"], CPU4), expect="failed")
    with pytest.raises(AssertionError) as failure:
        run_scenario(scenario)
    assert "Q1.1 [done" in str(failure.value)
    assert repr(scenario) in str(failure.value)


def test_a_declared_stall_returns_its_error():
    # the client dies on its first submission: 4 workers never fit 2 cores
    doomed = Scenario(
        (ClosedLoop(("Q1.1",), CPU4),), budget={"cpu_cores": 2}, stalls=True
    )
    assert "died mid-loop" in str(run_scenario(doomed).error)
    healthy = dataclasses.replace(doomed, budget=None)
    with pytest.raises(AssertionError, match="drive stalled: False"):
        run_scenario(healthy)


# -- the fingerprint itself ---------------------------------------------------


def _drive(*calls) -> Fingerprint:
    """A drive of ``calls`` (builtins, called on ``()``), each one second
    in, in schedule order."""
    sim = Simulator()
    for call in calls:
        sim._schedule_call(call, (), delay=1.0)
    with Fingerprint() as drive:
        sim.run()
    return drive


def test_two_same_time_events_in_the_other_order_move_the_digest():
    first, second = _drive(len, list).entry(), _drive(list, len).entry()
    assert first["digest"] != second["digest"]
    assert first | {"digest": None} == second | {"digest": None}
    assert (first["events"], first["makespan"]) == (2, 1.0)


def test_a_pop_that_bypasses_the_wrapper_fails_the_guard(monkeypatch):
    def bypassing_run(sim, until=None):
        while sim._heap:
            sim.now, _, arg, fn = heapq.heappop(sim._heap)
            fn(arg)

    monkeypatch.setattr(Simulator, "run", bypassing_run)
    with pytest.raises(AssertionError, match="2 heap entries bypassed"):
        _drive(len, len).entry()


def test_a_drive_with_no_entry_fails_naming_its_key(monkeypatch):
    # checked, and not recorded, even while the file is regenerated
    monkeypatch.setattr(fingerprint, "WRITE_TO", None)
    monkeypatch.setattr(fingerprint, "REACHED", {})
    with pytest.raises(AssertionError, match="drive nowhere/1 has no fingerprint"):
        _drive(len).check("nowhere/1")
