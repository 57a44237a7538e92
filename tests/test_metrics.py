"""Metrics surface tests: registry semantics, schema stability, and
observation that changes nothing.

Unit tests pin the Prometheus semantics (counter monotonicity including
``sync`` re-basing, cumulative histogram buckets, text exposition
format, registry idempotency).  The integration tests drive a real
:class:`EngineServer` and assert the contracts an external scraper
relies on: the snapshot's *exact* family set is stable across drives,
every counter is monotone from one drive to the next, histogram bucket
sums always equal their counts, and scraping a drive while it runs
leaves it bit-identical to an unobserved one.  The fleet tier gets the same
lifecycle invariant — every query terminal and counted once, every hop
closed — on hedged, loss and stall + watchdog drives, plus the
``FleetReport.events`` completeness and ordering contract.
"""

import pytest

from repro import ExecutionConfig
from repro.engine.config import ElasticPolicy, QoS
from repro.engine.failover import BreakerPolicy, FailoverPolicy
from repro.engine.faults import (
    DeviceLossFault,
    FaultPlan,
    RetryPolicy,
    ServerLossFault,
    ServerStallFault,
)
from repro.engine.fleet import EngineFleet
from repro.engine.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.engine.scheduler import CACHE_EVENTS, SchedulerError
from repro.engine.tenancy import Tenant
from scenario import (
    PLANS,
    Arrival,
    Scenario,
    Tables,
    _drive,
    assert_sessions_counted_once_and_terminal,
    batch,
    build,
    run_scenario,
)

CPU4 = ExecutionConfig.cpu_only(4, block_tuples=4096)

#: the stable exposition schema across BOTH surfaces: every family a
#: server registers plus the fleet dispatcher's families.  RP005 pins
#: this set against the families actually registered in the tree — add
#: to it only alongside the registering code.
EXPECTED_FAMILIES = {
    "repro_sessions_total",
    "repro_query_latency_seconds",
    "repro_queue_wait_seconds",
    "repro_preemptions_total",
    "repro_resizes_total",
    "repro_retries_total",
    "repro_shed_total",
    "repro_cache_events_total",
    "repro_faults_total",
    "repro_resource_utilization",
    "repro_budget_in_use",
    "repro_tenant_budget_in_use",
    "repro_drives_total",
    "repro_fleet_dispatches_total",
    "repro_fleet_failovers_total",
    "repro_fleet_hedges_total",
    "repro_fleet_queries_total",
    "repro_fleet_server_losses_total",
    "repro_fleet_breaker_state",
}

#: the families owned by the fleet dispatcher's own registry
FLEET_FAMILIES = {name for name in EXPECTED_FAMILIES if name.startswith("repro_fleet_")}

#: the single-server exposition schema (what a server drive snapshots)
SERVER_FAMILIES = EXPECTED_FAMILIES - FLEET_FAMILIES


class TestCounter:
    def test_inc_and_labels(self):
        counter = Counter("c_total", "help", ("status",))
        counter.inc(status="ok")
        counter.inc(2.0, status="ok")
        counter.inc(status="err")
        assert counter.value(status="ok") == 3.0
        assert counter.value(status="err") == 1.0
        assert counter.value(status="never") == 0.0

    def test_negative_increment_rejected(self):
        counter = Counter("c_total", "", ())
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1.0)

    def test_wrong_label_set_rejected(self):
        counter = Counter("c_total", "", ("a",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(b="x")

    def test_sync_folds_deltas_without_double_counting(self):
        counter = Counter("c_total", "", ())
        counter.sync(5.0)
        counter.sync(5.0)
        counter.sync(8.0)
        assert counter.value() == 8.0
        # a source reset re-bases without decrementing: still monotone
        counter.sync(2.0)
        assert counter.value() == 8.0
        counter.sync(3.0)
        assert counter.value() == 9.0


class TestHistogram:
    def test_buckets_are_cumulative_in_exposition(self):
        histogram = Histogram("h", "", (), buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        text = "\n".join(histogram.render())
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 3' in text
        assert 'h_bucket{le="+Inf"} 4' in text
        assert "h_sum 6.05" in text
        assert "h_count 4" in text

    def test_snapshot_bucket_sum_equals_count(self):
        histogram = Histogram("h", "", ("t",), buckets=DEFAULT_LATENCY_BUCKETS)
        for index in range(17):
            histogram.observe(0.001 * (index + 1) ** 3, t="x")
        values = histogram.snapshot_values()['{t="x"}']
        assert sum(values["buckets"].values()) == values["count"] == 17

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError, match="buckets"):
            Histogram("h", "", (), buckets=())
        with pytest.raises(ValueError, match="buckets"):
            Histogram("h", "", (), buckets=(1.0, float("inf")))


class TestRegistry:
    def test_idempotent_families_and_kind_conflicts(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "h", labels=("a",))
        assert registry.counter("x_total", "h", labels=("a",)) is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x_total", labels=("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("9bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", labels=("le gal",))

    def test_render_text_format(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "things").inc(2)
        gauge = registry.gauge("b", "level", labels=("k",))
        gauge.set(0.5, k="v")
        # integral values print as integers, other values round-trip
        registry.counter("big_total").inc(1234567)
        gauge.set(1 / 3, k="third")
        gauge.set(float("-inf"), k="low")
        gauge.set(float("nan"), k="nan")
        # a label value escapes backslash, double quote and newline
        gauge.set(1, k='a"b\\')
        gauge.set(2, k="x\ny")
        text = registry.render_text()
        assert "# HELP a_total things\n# TYPE a_total counter\na_total 2\n" in text
        assert "# TYPE big_total counter\nbig_total 1234567\n" in text
        assert (
            "# TYPE b gauge\n"
            'b{k="a\\"b\\\\"} 1\n'
            'b{k="low"} -Inf\n'
            'b{k="nan"} NaN\n'
            'b{k="third"} 0.3333333333333333\n'
            'b{k="v"} 0.5\n'
            'b{k="x\\ny"} 2\n'
        ) in text
        assert text.endswith("\n")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "things").inc()
        snap = registry.snapshot()
        assert snap == {
            "a_total": {"type": "counter", "help": "things", "values": {"": 1.0}}
        }


ACME = {"tenants": (Tenant("acme"),)}


class TestServerMetricsSurface:
    def test_schema_is_exact_and_stable_across_drives(self):
        arrivals = (Arrival("Q1.1", CPU4, tenant="acme"),)
        cold = run_scenario(Scenario(arrivals, ACME))
        first = cold.report.metrics
        second = cold.then(Arrival("Q2.1", CPU4)).report.metrics
        assert set(first) == SERVER_FAMILIES
        assert set(second) == SERVER_FAMILIES
        for name, family in second.items():
            assert family["type"] == first[name]["type"]

    def test_counters_monotone_across_two_drives(self):
        cold = run_scenario(Scenario((Arrival("Q1.1", CPU4),)))
        warm = cold.then(Arrival("Q1.1", CPU4), Arrival("Q3.1", CPU4))
        first, second = cold.report.metrics, warm.report.metrics
        for name, family in second.items():
            if family["type"] != "counter":
                continue
            before = first[name]["values"]
            for labels, value in family["values"].items():
                assert value >= before.get(labels, 0.0), (
                    f"{name}{labels} went backwards"
                )
        assert (
            second["repro_drives_total"]["values"][""]
            == first["repro_drives_total"]["values"][""] + 1
        )
        done = '{tenant="default",qos_class="batch",status="done"}'
        assert second["repro_sessions_total"]["values"][done] == 3.0

    def test_cache_events_equal_the_snapshot(self):
        """Every event the cache counter mirrors is a snapshot counter,
        and after a drive the two read the same value."""
        cold = run_scenario(Scenario((Arrival("Q1.1", CPU4),)))
        warm = cold.then(Arrival("Q1.1", CPU4), Arrival("Q3.1", CPU4))
        snap = warm.system.executor.pipeline_cache.snapshot()
        events = warm.report.metrics["repro_cache_events_total"]["values"]
        assert snap["hits"] > 0 and snap["misses"] > 0
        for event in CACHE_EVENTS:
            assert events.get(f'{{event="{event}"}}', 0.0) == snap[event], event

    def test_histogram_bucket_sums_equal_counts(self):
        arrivals = tuple(
            Arrival("Q1.1", CPU4, tenant="acme" if index % 2 else None)
            for index in range(3)
        )
        snapshot = run_scenario(Scenario(arrivals, ACME)).report.metrics
        checked = 0
        for family in snapshot.values():
            if family["type"] != "histogram":
                continue
            for child in family["values"].values():
                assert sum(child["buckets"].values()) == child["count"]
                checked += 1
        assert checked >= 2  # latency + queue-wait, per tenant label

    def test_text_exposition_of_live_server(self):
        arrivals = (Arrival("Q1.1", CPU4, tenant="acme"),)
        text = run_scenario(Scenario(arrivals, ACME)).system.metrics_text()
        assert "# TYPE repro_sessions_total counter" in text
        assert (
            'repro_sessions_total{tenant="acme",qos_class="batch",'
            'status="done"} 1' in text
        )
        assert "# TYPE repro_query_latency_seconds histogram" in text
        assert 'repro_query_latency_seconds_bucket{tenant="acme",le="+Inf"} 1' in text

    def test_stalled_drive_counts_sessions_under_terminal_status(self):
        # a bare drive: the simulator is stopped mid-execution by hand
        server = build(Scenario())
        session = server.submit(PLANS["Q2.1"], CPU4)
        server.start()
        server.sim.run(until=2e-3)  # cut the drive short, mid-execution
        with pytest.raises(SchedulerError, match="batch stalled"):
            server.finish_drive()
        assert session.status == "failed"
        assert_sessions_counted_once_and_terminal(server.last_report)
        server.check_conservation()

    def test_mixed_drive_counts_sessions_under_terminal_status(self):
        gpu = ExecutionConfig.gpu_only([0, 1], block_tuples=4096)
        arrivals = (
            Arrival("Q1.1", gpu, tenant="acme"),
            Arrival("Q1.2", CPU4),
            Arrival("Q1.3", CPU4),
        )
        loss = DeviceLossFault(gpu_id=0, at_seconds=5e-4)
        server = {
            **ACME,
            "max_concurrent": 1,
            "max_queue_depth": 2,
            "fault_plan": FaultPlan(seed=7, device_losses=(loss,)),
        }
        out = run_scenario(Scenario(arrivals, server))
        assert [s.status for s in out.items] == ["failed", "done", "shed"]

    def test_registry_shared_through_engine_facade(self):
        server = build(Scenario())
        assert server.metrics is server.engine.metrics


class TestFleetMetricsSurface:
    def test_fleet_schema_is_exact_from_construction(self):
        fleet = EngineFleet(num_servers=2, replication=1)
        snapshot = fleet.metrics.snapshot()
        assert set(snapshot) == FLEET_FAMILIES
        assert snapshot["repro_fleet_breaker_state"]["type"] == "gauge"
        for name in FLEET_FAMILIES - {"repro_fleet_breaker_state"}:
            assert snapshot[name]["type"] == "counter", name

    def test_fleet_and_server_schemas_partition_the_pin(self):
        assert FLEET_FAMILIES | SERVER_FAMILIES == EXPECTED_FAMILIES
        assert not FLEET_FAMILIES & SERVER_FAMILIES


def _sharded(queries=("Q1.1", "Q2.1"), **fleet) -> Scenario:
    fleet = {"num_servers": 4, "replication": 2, **fleet}
    return Scenario(batch(queries, CPU4), fleet=fleet)


def _srv0_partitioned(seconds: float) -> FaultPlan:
    """srv0 is unreachable from the start of the drive for ``seconds``."""
    return FaultPlan(server_stalls=(ServerStallFault("srv0", 0.0, seconds),))


class TestFleetLifecycle:
    """One terminal path (``EngineFleet._finish``) and one hop-close
    (``_close_hop``): whatever ends a query or a hop, it is counted once
    — the runner's lifecycle check, on three ways a hop can end."""

    def test_hedged_drive(self):
        # srv0 is partitioned when the drive starts: its primary parks at
        # the fleet edge, the hedge on the other replica answers first
        policy = FailoverPolicy(max_attempts=3, hedge_delay_seconds=1e-3)
        scenario = _sharded(failover=policy, fault_plan=_srv0_partitioned(0.05))
        report = run_scenario(scenario).report
        assert [q.status for q in report.queries] == ["done", "done"]
        assert report.hedge_wins >= 1
        hedges = report.metrics["repro_fleet_hedges_total"]["values"]
        assert hedges['{result="loss"}'] >= 1.0

    def test_loss_mid_scatter_drive(self):
        plan = FaultPlan(server_losses=(ServerLossFault("srv1", 1e-3),))
        report = run_scenario(_sharded(fault_plan=plan)).report
        assert [q.status for q in report.queries] == ["done", "done"]
        assert report.failovers_by_outcome == {"server_lost": 1}

    def test_stall_and_watchdog_drive(self):
        # the watchdog fails the dispatch parked on srv0's partition; the
        # hop fails over to the other replica and the query completes
        policy = FailoverPolicy(max_attempts=3, dispatch_timeout_seconds=0.5)
        scenario = _sharded(failover=policy, fault_plan=_srv0_partitioned(2.0))
        report = run_scenario(scenario).report
        assert [q.status for q in report.queries] == ["done", "done"]
        assert report.failovers_by_outcome == {"stall_timeout": 1}


class TestFleetEventLog:
    """``FleetReport.events``: complete, and in simulated-time order."""

    def test_breaker_tripped_by_a_dispatch_outcome_is_logged(self):
        # the watchdog (t = 0.001) trips srv0's breaker before the first
        # health probe (t = 0.0025) ever runs
        scenario = _sharded(
            queries=("Q1.1",),
            failover=FailoverPolicy(max_attempts=4, dispatch_timeout_seconds=1e-3),
            breaker=BreakerPolicy(failure_threshold=1, open_seconds=1.0),
            fault_plan=_srv0_partitioned(0.02),
        )
        out = run_scenario(scenario)
        assert out.system.server("srv0").breaker.transitions == [(1e-3, "open")]
        event = {"kind": "breaker_open", "server": "srv0", "at": 1e-3}
        assert event in out.report.events
        assert out.report.queries[0].error_class == "fleet_exhausted"

    def test_events_are_in_simulated_time_order(self):
        plan = FaultPlan(
            server_losses=(ServerLossFault("srv1", 1e-3),),
            server_stalls=(ServerStallFault("srv0", 4e-3, 2e-3),),
        )
        report = run_scenario(_sharded(fault_plan=plan)).report
        assert [(e["kind"], e["server"], e["at"]) for e in report.events] == [
            ("server_loss", "srv1", 1e-3),
            ("breaker_open", "srv1", 1e-3),
            ("server_stall", "srv0", 4e-3),
        ]


# The two drives below run at logical SF 1 with compilation free, so
# bandwidth jobs are in flight at most of the watcher's ticks; at block
# 4096 over the physical tables the buses are busy for microseconds of
# a drive and a read almost never meets an open interval.
HYBRID = ExecutionConfig.hybrid(4, [0, 1], block_tuples=4096)
CPU6 = ExecutionConfig.cpu_only(6, block_tuples=4096)
INTERACTIVE = QoS(priority=5, label="interactive")

#: an elastic two-tenant server whose drive pauses, resizes and retries:
#: GPU 0 dies under the hybrid query while interactive arrivals preempt
ELASTIC_TENANTS = Scenario(
    (
        *(
            Arrival(query, CPU4, name=f"lo{i}", tenant="lo")
            for i, query in enumerate(("Q4.1", "Q3.1", "Q4.2", "Q2.1"))
        ),
        Arrival("Q2.1", HYBRID, name="gpu", tenant="hi"),
        *(
            Arrival(
                "Q1.1",
                CPU6,
                name=f"hi{i}",
                tenant="hi",
                qos=INTERACTIVE,
                at=0.002 * (i + 1),
            )
            for i in range(3)
        ),
    ),
    {
        "tenants": (Tenant("lo", weight=2.0), Tenant("hi")),
        "max_concurrent": 3,
        "compile_seconds": 0.0,
        "elastic": True,
        "elastic_policy": ElasticPolicy(target_utilization=1e-9, window_seconds=1e-4),
        "fault_plan": FaultPlan(device_losses=(DeviceLossFault(0, 1e-3),)),
        "retry_policy": RetryPolicy(max_attempts=3),
    },
    budget={
        "cpu_cores": 10,
        "gpu_units": 4,
        "dram_bytes": 1e15,
        "hbm_bytes": 1e12,
        "pcie_bytes": 1e15,
    },
    tables=Tables(logical_sf=1.0),
)

#: the fleet loss smoke (``benchmarks/test_fleet.py``): srv0 of four
#: backends (two shards, two replicas each) is lost mid-scatter-gather
FLEET_LOSS = Scenario(
    batch(
        ("Q1.1", "Q2.1", "Q3.1", "Q1.2"),
        ExecutionConfig.cpu_only(4, block_tuples=256),
    ),
    {"max_concurrent": 4, "compile_seconds": 0.0},
    fleet={
        "num_servers": 4,
        "replication": 2,
        "fault_plan": FaultPlan(seed=7, server_losses=(ServerLossFault("srv0", 1e-3),)),
    },
    tables=Tables(scale_factor=0.01, seed=42, logical_sf=1.0),
)


def _watched(scenario: Scenario):
    """Drive ``scenario`` under a watcher that, every 1e-4 s until
    nothing else is scheduled, scrapes every metrics surface and reads
    every DRAM, HBM and PCIe resource."""
    system = build(scenario)
    sim = system.sim
    servers = [fs.server for fs in system.servers] if scenario.fleet else [system]
    surfaces = [system, *servers] if scenario.fleet else servers
    buses = [
        bus
        for server in servers
        for bus in (
            *(node.bandwidth for node in server.server.memory_nodes.values()),
            *(gpu.link.bandwidth for gpu in server.server.gpus),
        )
    ]

    def watcher():
        while sim._heap:  # anything scheduled but this watcher?
            for surface in surfaces:
                surface.metrics_text()
            for bus in buses:
                bus.busy_time, bus.total_work_served
            yield sim.timeout(1e-4)

    sim.process(watcher(), name="watcher")
    # exempt from tests/signatures.json: the watcher's timeouts are events
    return _drive(scenario, system, scenario.arrivals, exempt=True)


@pytest.mark.parametrize(
    "scenario", [ELASTIC_TENANTS, FLEET_LOSS], ids=["elastic-tenants", "fleet-loss"]
)
def test_observing_a_drive_never_changes_it(scenario):
    """Metrics are read, not simulated: a drive scraped every 1e-4 s
    ends bit-identical to the unobserved one — makespan, every latency
    and row, the behavioural counters and the budgets' lifetime totals.
    Only the event count differs, by the watcher's own timeouts."""
    plain = run_scenario(scenario)
    if scenario.fleet is None:
        report = plain.report
        assert min(report.preemptions, report.resizes, report.retries) >= 1
    else:
        assert plain.report.server_losses == 1
    assert _watched(scenario).signature()[:-1] == plain.signature()[:-1]
