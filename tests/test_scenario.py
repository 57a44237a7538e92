"""The scenario harness itself: a drive is a value, and the runner's
always-on invariants fail loudly, naming the scenario."""

import dataclasses

import pytest

from repro import CachePolicy, ExecutionConfig, ResourceBudget, SharedCacheDirectory
from repro.engine.faults import DeviceLossFault, FaultPlan, RetryPolicy
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
    assert first[-1] > 0  # the simulator's event count


@pytest.mark.parametrize(
    "scenario, pushes, makespan",
    [(CAPPED, 848, 0.14270464305555555), (SHARED, 2861, 1.960557138087274)],
    ids=["budget", "shared-cache"],
)
def test_event_count_is_pinned(scenario, pushes, makespan):
    """The simulator's heap pushes of a drive, recorded at ``ea635c4``
    less the metrics DES process's own pushes (its start, and a wake-up
    and a timeout per sampling window), deleted since, and less three
    per GPU block (126 blocks here) since a transfer is its own completion and
    a kernel runs inside its worker.  A speed-up of
    the event path adds, removes and reorders none: one event more or
    fewer moves this integer (and, reordered, the clock)."""
    signature = run_scenario(scenario).signature()
    assert (signature[-1], signature[0]) == (pushes, makespan)


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
