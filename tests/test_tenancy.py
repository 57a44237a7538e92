"""Multi-tenant isolation tests: quotas, rate limits, weighted fairness.

Unit tests pin the tenancy primitives (token bucket in simulated time,
deficit-round-robin interleaving, quota capacity derivation); the
integration tests drive a shared :class:`EngineServer` and assert the
isolation contracts: a capped tenant's in-flight demand never exceeds
its quota slice (including across preemption and retries), a
rate-limited tenant is shed at the edge with a ``retry_after`` hint, and
admission service follows the configured weights under contention —
while every query still returns byte-identical rows.
"""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecutionConfig, ResourceBudget
from repro.engine.config import ElasticPolicy, QoS
from repro.engine.faults import DeviceLossFault, FaultPlan, RetryPolicy
from repro.engine.scheduler import AdmissionError
from repro.engine.tenancy import (
    COMPUTE_DIMENSIONS,
    DeficitRoundRobin,
    MEMORY_DIMENSIONS,
    RateLimit,
    Tenant,
    TokenBucket,
    quota_capacities,
)
from scenario import PLANS, Arrival, Scenario, build, run_scenario

CPU4 = ExecutionConfig.cpu_only(4, block_tuples=4096)

BATCH = QoS(priority=0, label="batch")
INTERACTIVE = QoS(priority=5, label="interactive")


def _tenanted(*tenants, arrivals=(), cores=None, **server) -> Scenario:
    """``arrivals`` on a server shared by ``tenants``, every one expected
    to complete.  ``cores`` caps the budget's compute; every other
    dimension is finite too, so memory quotas have a capacity to scale."""
    budget = None
    if cores is not None:
        budget = {"dram_bytes": 1e15, "hbm_bytes": 1e12, "pcie_bytes": 1e15}
        budget.update(cpu_cores=cores, gpu_units=4)
    server["tenants"] = tenants
    return Scenario(arrivals, server, budget=budget, expect="done")


class TestTenantConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            Tenant("")
        with pytest.raises(ValueError, match="weight"):
            Tenant("a", weight=0.0)
        with pytest.raises(ValueError, match="compute_quota"):
            Tenant("a", compute_quota=1.5)
        with pytest.raises(ValueError, match="memory_quota"):
            Tenant("a", memory_quota=0.0)
        with pytest.raises(ValueError, match="rate_qps"):
            RateLimit(rate_qps=0.0)
        with pytest.raises(ValueError, match="burst"):
            RateLimit(rate_qps=1.0, burst=0.5)
        assert not Tenant("a").capped
        assert Tenant("a", compute_quota=0.5).capped

    def test_quota_capacities_scale_only_quoted_dimensions(self):
        budget = ResourceBudget(cpu_cores=8, dram_bytes=1e9)
        tenant = Tenant("a", compute_quota=0.5)
        caps = quota_capacities(tenant, budget.capacity)
        # compute dims with finite server capacity scale; memory dims
        # (no memory_quota) and unlimited dims are absent -> unlimited
        assert caps == {"cpu_cores": 4.0}
        both = quota_capacities(
            Tenant("b", compute_quota=0.25, memory_quota=0.5), budget.capacity
        )
        assert both == {"cpu_cores": 2.0, "dram_bytes": 5e8}

    def test_dimension_split_is_exhaustive(self):
        from repro.engine.scheduler import DIMENSIONS

        assert sorted((*COMPUTE_DIMENSIONS, *MEMORY_DIMENSIONS)) == sorted(DIMENSIONS)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(RateLimit(rate_qps=2.0, burst=2.0), now=0.0)
        assert bucket.take(0.0) is None  # starts full: burst of 2
        assert bucket.take(0.0) is None
        retry = bucket.take(0.0)
        assert retry == pytest.approx(0.5)  # 1 token / 2 qps
        # after the hinted wait the next take succeeds
        assert bucket.take(0.5) is None
        assert bucket.take(0.5) == pytest.approx(0.5)

    def test_bank_is_capped_at_burst(self):
        bucket = TokenBucket(RateLimit(rate_qps=1.0, burst=1.0), now=0.0)
        assert bucket.take(0.0) is None
        # a long idle period banks at most `burst` tokens
        assert bucket.take(100.0) is None
        assert bucket.take(100.0) is not None


class TestDeficitRoundRobin:
    def test_weighted_interleave(self):
        drr = DeficitRoundRobin()
        out = drr.interleave(
            {"a": ["a0", "a1", "a2", "a3"], "b": ["b0", "b1"]},
            {"a": 2.0, "b": 1.0},
            ["a", "b"],
            lambda s: 0,
        )
        assert out == ["a0", "a1", "b0", "a2", "a3", "b1"]

    def test_priority_beats_weight_across_tenants(self):
        drr = DeficitRoundRobin()
        priorities = {"a0": 0, "a1": 0, "b0": 5, "b1": 0}
        out = drr.interleave(
            {"a": ["a0", "a1"], "b": ["b0", "b1"]},
            {"a": 10.0, "b": 1.0},
            ["a", "b"],
            priorities.__getitem__,
        )
        # b's interactive head jumps a's heavy weight; the remaining
        # batch traffic then follows the weights
        assert out[0] == "b0"

    def test_charge_keeps_deficits_bounded_and_drops_idle(self):
        drr = DeficitRoundRobin()
        for _ in range(100):
            drr.charge("a", {"a": 2.0, "b": 1.0})
        assert -3.0 <= drr.deficit("a") <= 3.0
        assert drr.deficit("b") >= 1.0 - 1e-9  # backlogged b banked credit
        drr.charge("a", {"a": 2.0})  # b went idle: its deficit is forfeit
        assert drr.deficit("b") == 0.0


def _reference_interleave(deficits, queues, weights, order, priority_of):
    """The eager merge as first written (four lists a step), over its own
    copy of the deficits: what the lazy merge must reproduce."""
    backlogged = [name for name in order if queues.get(name)]
    deficits = {name: deficits.get(name, 0.0) for name in backlogged}
    cursor = {name: 0 for name in backlogged}
    rank = {name: index for index, name in enumerate(order)}
    out = []
    while True:
        remaining = [n for n in backlogged if cursor[n] < len(queues[n])]
        if not remaining:
            return out
        eligible = [n for n in remaining if deficits[n] >= 1.0 - 1e-9]
        if not eligible:
            for name in remaining:
                deficits[name] += weights[name]
            continue
        best = max(
            eligible,
            key=lambda n: (priority_of(queues[n][cursor[n]]), -rank[n]),
        )
        out.append(queues[best][cursor[best]])
        cursor[best] += 1
        deficits[best] -= 1.0


_TENANTS = ["default", "a", "b", "c"]


@settings(max_examples=150, deadline=None)
@given(
    # per tenant, its queue as the priorities of its sessions (sorted:
    # a tenant's queue arrives in admission order)
    priorities=st.fixed_dictionaries(
        {name: st.lists(st.integers(0, 3), max_size=6) for name in _TENANTS}
    ),
    weights=st.fixed_dictionaries(
        {name: st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]) for name in _TENANTS}
    ),
    start=st.dictionaries(
        st.sampled_from(_TENANTS), st.floats(min_value=-1.0, max_value=3.0)
    ),
)
def test_lazy_merge_equals_the_eager_merge(priorities, weights, start):
    queues = {
        name: [(name, index, priority)
               for index, priority in enumerate(sorted(levels, reverse=True))]
        for name, levels in priorities.items()
    }
    backlogged = {name for name in _TENANTS if queues[name]}

    def fresh():
        drr = DeficitRoundRobin()
        drr._deficits = dict(start)
        return drr

    def priority_of(session):
        return session[2]

    args = (queues, weights, _TENANTS, priority_of)
    expected = _reference_interleave(start, *args)
    after = {name: value for name, value in start.items() if name in backlogged}
    assert sorted(expected) == sorted(s for q in queues.values() for s in q)
    for k in range(len(expected) + 2):
        drr = fresh()
        assert list(islice(drr.merge(*args), k)) == expected[:k]
        # idle tenants forfeit at the call, read or not; nothing else moves
        assert drr._deficits == after
    drr = fresh()
    assert drr.interleave(*args) == expected
    assert drr._deficits == after


class TestSubmissionEdge:
    """Bare drives: what ``submit`` returns *before* the run is the subject."""

    def test_unknown_tenant_rejected(self):
        server = build(_tenanted(Tenant("acme")))
        with pytest.raises(ValueError, match="unknown tenant"):
            server.submit(PLANS["Q1.1"], CPU4, tenant="ghost")

    def test_reserved_and_duplicate_names(self):
        with pytest.raises(ValueError, match="reserved"):
            build(_tenanted(Tenant("default")))
        with pytest.raises(ValueError, match="duplicate"):
            build(_tenanted(Tenant("a"), Tenant("a")))

    def test_rate_limited_shed_carries_retry_after(self):
        server = build(_tenanted(Tenant("acme", rate_limit=RateLimit(rate_qps=2.0))))
        first = server.submit(PLANS["Q1.1"], CPU4, tenant="acme")
        second = server.submit(PLANS["Q1.1"], CPU4, tenant="acme")
        assert first.status == "queued"
        assert second.status == "shed"
        assert second.shed_reason == "rate_limited"
        assert second.retry_after == pytest.approx(0.5)
        assert second.done.triggered
        report = server.run()
        assert first.status == "done"
        acme = report.tenants["acme"]
        assert acme["shed_rate_limited"] == 1
        assert acme["done"] == 1
        server.check_conservation()

    def test_queue_full_shed_reports_reason(self):
        server = build(Scenario(server={"max_concurrent": 1, "max_queue_depth": 2}))
        kept = [server.submit(PLANS["Q1.1"], CPU4) for _ in range(2)]
        dropped = server.submit(PLANS["Q1.1"], CPU4)
        assert dropped.status == "shed"
        assert dropped.shed_reason == "queue_full"
        assert dropped.retry_after is None
        report = server.run()
        assert all(s.status == "done" for s in kept)
        assert report.tenants["default"]["shed_queue_full"] == 1

    def test_query_exceeding_tenant_quota_rejected(self):
        small = Tenant("small", compute_quota=0.25)  # 2 cores
        server = build(_tenanted(small, cores=8))
        with pytest.raises(AdmissionError, match="tenant 'small' quota"):
            server.submit(PLANS["Q1.1"], CPU4, tenant="small")
        # the same query is fine untenanted
        server.submit(PLANS["Q1.1"], CPU4)


class TestQuotaEnforcement:
    def test_saturating_tenant_capped_at_its_share(self):
        arrivals = tuple(
            Arrival("Q1.1", CPU4, name=f"n{i}", tenant="noisy") for i in range(6)
        )
        noisy = Tenant("noisy", compute_quota=0.5)  # 8 cores max
        out = run_scenario(
            _tenanted(noisy, arrivals=arrivals, cores=16, max_concurrent=8)
        )
        slice_ = out.system.tenant_states["noisy"].budget
        # never more than two 4-core queries of this tenant in flight
        assert slice_.peak["cpu_cores"] <= 8.0
        assert out.system.budget.peak["cpu_cores"] <= 16.0

    def test_quota_shares_conserved_across_preemption(self):
        cpu6 = ExecutionConfig.cpu_only(6, block_tuples=4096)
        arrivals = (
            Arrival("Q4.1", CPU4, name="lo0", tenant="lo", qos=BATCH),
            Arrival("Q4.1", CPU4, name="lo1", tenant="lo", qos=BATCH),
            Arrival("Q1.1", cpu6, name="hi", tenant="hi", qos=INTERACTIVE),
        )
        tenants = (
            Tenant("lo", compute_quota=0.75, memory_quota=0.9),
            Tenant("hi", compute_quota=0.75, memory_quota=0.9),
        )
        out = run_scenario(
            _tenanted(
                *tenants, arrivals=arrivals, cores=8, max_concurrent=4, preemption=True
            )
        )
        for name in ("lo", "hi"):
            tenant_budget = out.system.tenant_states[name].budget
            for dim in ("cpu_cores", "dram_bytes"):
                assert tenant_budget.peak[dim] <= tenant_budget.capacity[dim] + 1e-6
        # the runner's check_conservation asserts the per-tenant mirrors
        # drained too: preemption path exercised or not, they must balance
        assert out.report.preemptions >= 0

    def test_quota_shares_conserved_across_retries(self):
        hybrid = ExecutionConfig.hybrid(4, [0, 1], block_tuples=4096)
        out = run_scenario(
            _tenanted(
                Tenant("acme", compute_quota=0.9, memory_quota=0.9),
                arrivals=(Arrival("Q1.1", hybrid, name="survivor", tenant="acme"),),
                cores=12,
                max_concurrent=4,
                fault_plan=FaultPlan(
                    device_losses=(DeviceLossFault(gpu_id=0, at_seconds=0.001),)
                ),
                retry_policy=RetryPolicy(max_attempts=3),
            )
        )
        assert out.sessions["survivor"].retries >= 1
        acme = out.system.tenant_states["acme"].budget
        for dim in acme.capacity:
            assert acme.in_use[dim] == 0.0

    def test_tenant_quota_block_never_preempts_other_tenants(self):
        arrivals = (
            Arrival("Q4.1", CPU4, name="bystander", tenant="victim", qos=BATCH),
            Arrival("Q1.1", CPU4, name="g0", tenant="greedy", qos=INTERACTIVE),
            Arrival("Q1.1", CPU4, name="g1", tenant="greedy", qos=INTERACTIVE),
        )
        # greedy's own quota (4 cores) blocks its second query; victim
        # has plenty of global headroom around it
        tenants = (Tenant("greedy", compute_quota=0.25), Tenant("victim"))
        out = run_scenario(
            _tenanted(
                *tenants, arrivals=arrivals, cores=16, max_concurrent=8, preemption=True
            )
        )
        # the high-priority tenant was quota-blocked, not budget-blocked:
        # the other tenant's query must not have been paused for it
        assert out.sessions["bystander"].preemptions == 0


class TestWeightedFairness:
    def test_drr_serves_backlogged_tenants_by_weight(self):
        arrivals = []
        for i in range(6):
            arrivals.append(Arrival("Q1.1", CPU4, name=f"h{i}", tenant="heavy"))
            arrivals.append(Arrival("Q1.1", CPU4, name=f"l{i}", tenant="light"))
        tenants = (Tenant("heavy", weight=2.0), Tenant("light", weight=1.0))
        out = run_scenario(
            _tenanted(*tenants, arrivals=tuple(arrivals), max_concurrent=1)
        )
        admitted = sorted(out.items, key=lambda s: s.admit_time)
        first_six = [s.tenant for s in admitted[:6]]
        assert first_six.count("heavy") == 4
        assert first_six.count("light") == 2

    def test_priority_still_strict_across_tenants(self):
        arrivals = (
            *(Arrival("Q1.1", CPU4, name=f"a{i}", tenant="a") for i in range(3)),
            Arrival("Q1.1", CPU4, name="urgent", tenant="b", qos=INTERACTIVE),
        )
        tenants = (Tenant("a", weight=10.0), Tenant("b", weight=1.0))
        out = run_scenario(_tenanted(*tenants, arrivals=arrivals, max_concurrent=1))
        *batch, urgent = out.items
        # tenant b's interactive query beat tenant a's remaining batch
        # work despite a's 10x weight
        later_batch = [s for s in batch if s.admit_time > 0.0]
        assert all(urgent.admit_time <= s.admit_time for s in later_batch)


def test_incremental_waiting_order_is_the_sorted_order():
    """The per-tenant queues ``_move`` keeps are, at every dispatch of a
    drive that pauses, resizes and retries sessions, what sorting the
    queued + paused sessions by ``_rank`` would give."""
    cpu6 = ExecutionConfig.cpu_only(6, block_tuples=4096)
    hybrid = ExecutionConfig.hybrid(4, [0, 1], block_tuples=4096)
    arrivals = (
        *(
            Arrival(query, CPU4, name=f"lo{i}", tenant="lo", qos=BATCH)
            for i, query in enumerate(("Q4.1", "Q3.1", "Q4.2", "Q2.1"))
        ),
        Arrival("Q2.1", hybrid, name="gpu", tenant="hi", qos=BATCH),
        *(
            Arrival("Q1.1", cpu6, name=f"hi{i}", tenant="hi", qos=INTERACTIVE,
                    at=0.002 * (i + 1))
            for i in range(3)
        ),
    )
    idle = run_scenario(
        _tenanted(
            Tenant("lo", weight=2.0),
            Tenant("hi"),
            cores=10,
            max_concurrent=3,
            preemption=True,
            elastic=True,
            elastic_policy=ElasticPolicy(target_utilization=1e-9, window_seconds=1e-4),
            fault_plan=FaultPlan(
                device_losses=(DeviceLossFault(gpu_id=0, at_seconds=0.001),)
            ),
            retry_policy=RetryPolicy(max_attempts=3),
        )
    )
    server, dispatch, depths = idle.system, idle.system._dispatch, []

    def audited_dispatch():
        waiting = [*server._pending.values(), *server._paused.values()]
        for label, queue in server._queues.items():
            mine = [s for s in waiting if server._tenant_label(s.tenant) == label]
            assert queue == sorted(mine, key=server._rank)
        depths.append((len(server._pending), len(server._paused)))
        dispatch()

    server._dispatch = audited_dispatch
    report = idle.then(*arrivals).report
    # the drive did pause, resize and retry, with sessions waiting meanwhile
    assert min(report.preemptions, report.resizes, report.retries) >= 1
    assert max(queued for queued, _ in depths) >= 5
    assert max(paused for _, paused in depths) >= 1
