"""Fleet tier: server-level chaos over a sharded, replicated fleet.

The PR-10 acceptance scenario: an :class:`EngineFleet` of four backends
(two range shards of ``lineorder``, two replicas each) loses a whole
replica mid-scatter-gather and every submitted query must still reach a
typed terminal status with rows **byte-identical** to a single
unsharded server — shard-level re-association of the SSB aggregates is
exact (integer sums in float64), so sharding plus failover must be
invisible in the results.

The fast smoke (default tier) covers the loss-mid-drive scenario,
hedged dispatch conservation, and per-seed determinism; the
``--runslow`` tier drives the full server-fault mix (loss + stall
windows + dispatch-timeout watchdog) and asserts probe-driven breaker
recovery.
"""

import pytest

from repro.engine.config import ExecutionConfig
from repro.engine.failover import (
    FAILOVER_CLASSES,
    BreakerPolicy,
    FailoverPolicy,
)
from repro.engine.faults import FaultPlan, ServerLossFault, ServerStallFault
from repro.engine.fleet import EngineFleet, ShardMap
from scenario import Scenario, Tables, batch, run_scenario

SMOKE_BATCH = ["Q1.1", "Q2.1", "Q3.1", "Q1.2"]
SWEEP_BATCH = ["Q1.1", "Q2.1", "Q3.1", "Q4.1", "Q1.2", "Q2.2"]

#: every attempt outcome the typed log may carry
TYPED_OUTCOMES = FAILOVER_CLASSES | {"ok", "hedge_loser", "fatal"}


def _sharded(settings, queries, **fleet) -> Scenario:
    """Four backends, two range shards of ``lineorder``, two replicas
    each.  Sharded scatter-gather must be invisible in the rows: the
    runner holds every completed query byte-identical to the unsharded
    reference (in ORDER BY order where the plan has one), every hop
    closed, and budgets and staging arenas conserved on EVERY backend,
    dead or not."""
    config = ExecutionConfig.cpu_only(4, block_tuples=settings.block_tuples)
    return Scenario(
        batch(queries, config),
        fleet={"num_servers": 4, "replication": 2, **fleet},
        server={"max_concurrent": 4},
        tables=Tables(settings.physical_sf, settings.seed, None, settings.segment_rows),
    )


def _assert_typed(report):
    """The typed attempt log: every outcome typed, no negative spans."""
    assert report.queries, "the drive produced no fleet queries at all"
    for query in report.queries:
        for shard, chain in query.chains.items():
            for attempt in chain.attempts:
                assert attempt.outcome in TYPED_OUTCOMES, (query.name, shard)
                assert attempt.elapsed >= 0.0


class TestShardMap:
    """The placement arithmetic under the fleet, on its own."""

    @pytest.mark.parametrize(
        "num_servers,replication", [(4, 2), (5, 2), (6, 3), (3, 1)]
    )
    def test_replicas_partition_the_servers(self, num_servers, replication):
        shard_map = ShardMap.with_replication(num_servers, replication)
        placed = [
            server
            for shard in range(shard_map.num_shards)
            for server in shard_map.replicas(shard)
        ]
        assert sorted(placed) == list(range(num_servers))
        for shard in range(shard_map.num_shards):
            assert len(shard_map.replicas(shard)) >= replication
            for server in shard_map.replicas(shard):
                assert shard_map.shard_of_server(server) == shard

    @pytest.mark.parametrize("num_rows", [0, 1, 7, 1000, 30_011])
    def test_row_ranges_tile_the_table_exactly(self, num_rows):
        shard_map = ShardMap(num_servers=6, num_shards=3)
        ranges = [shard_map.row_range(shard, num_rows) for shard in range(3)]
        assert ranges[0][0] == 0 and ranges[-1][1] == num_rows
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_replication_beyond_the_fleet_is_rejected(self):
        """``with_replication(2, 3)`` used to return a 2-way map under a
        docstring promising every shard lands on >= R backends."""
        with pytest.raises(ValueError, match="replication"):
            ShardMap.with_replication(2, 3)
        with pytest.raises(ValueError, match="replication"):
            EngineFleet(num_servers=2, replication=3)
        with pytest.raises(ValueError, match="replication"):
            ShardMap.with_replication(2, 0)
        assert ShardMap.with_replication(2, 2).replicas(0) == (0, 1)


class TestFleetFailoverSmoke:
    """Fast fleet smoke: runs in the default (tier-1) suite."""

    def test_server_loss_mid_scatter_gather_is_byte_identical(self, settings):
        plan = FaultPlan(
            seed=7,
            server_losses=(ServerLossFault(server_id="srv0", at_seconds=1e-3),),
        )
        out = run_scenario(_sharded(settings, SMOKE_BATCH, fault_plan=plan))
        report = out.report
        print("\n" + report.summary())
        _assert_typed(report)
        # the loss actually fired mid-drive and the fleet failed over
        assert report.server_losses == 1
        assert report.lost_servers == ["srv0"]
        assert report.breaker_states["srv0"] == "open"
        assert report.failovers_by_outcome.get("server_lost", 0) >= 1
        # ... and every query still completed with identical rows
        assert all(q.status == "done" for q in report.queries)
        # the metrics surface grew the fleet families, with real traffic
        assert report.metrics["repro_fleet_server_losses_total"]["values"][""] == 1.0
        dispatches = report.metrics["repro_fleet_dispatches_total"]["values"]
        assert sum(dispatches.values()) == sum(report.dispatches.values())
        failovers = report.metrics["repro_fleet_failovers_total"]["values"]
        assert failovers['{outcome="server_lost"}'] >= 1.0

    def test_hedged_dispatch_first_response_wins_and_conserves(self, settings):
        policy = FailoverPolicy(max_attempts=3, hedge_delay_seconds=0.05)
        report = run_scenario(_sharded(settings, SMOKE_BATCH, failover=policy)).report
        print("\n" + report.summary())
        _assert_typed(report)
        assert all(q.status == "done" for q in report.queries)
        # hedges actually launched (queries run long past the delay) and
        # every loser was cancelled without leaking budget or staging
        losers = [
            a
            for q in report.queries
            for a in q.attempts()
            if a.outcome == "hedge_loser"
        ]
        assert losers, "no hedge ever launched; lower hedge_delay_seconds"
        hedges = report.metrics["repro_fleet_hedges_total"]["values"]
        assert sum(hedges.values()) >= len(losers)

    def test_fleet_chaos_is_deterministic_per_seed(self, settings):
        scenario = _sharded(
            settings,
            SMOKE_BATCH,
            fault_plan=FaultPlan(
                seed=11,
                server_losses=(ServerLossFault(server_id="srv2", at_seconds=2e-3),),
            ),
            failover=FailoverPolicy(max_attempts=4, hedge_delay_seconds=0.06),
        )
        assert run_scenario(scenario).signature() == run_scenario(scenario).signature()


@pytest.mark.slow
class TestFleetChaosSweep:
    """The full fleet fault mix: loss + stall + watchdog, with recovery."""

    @staticmethod
    def _scenario(settings) -> Scenario:
        plan = FaultPlan(
            seed=23,
            server_losses=(ServerLossFault(server_id="srv3", at_seconds=5e-3),),
            server_stalls=(
                ServerStallFault(
                    server_id="srv1", at_seconds=0.0, duration_seconds=0.05
                ),
            ),
        )
        return _sharded(
            settings,
            SWEEP_BATCH,
            fault_plan=plan,
            failover=FailoverPolicy(
                max_attempts=4,
                backoff_seconds=1e-3,
                dispatch_timeout_seconds=0.5,
                hedge_delay_seconds=0.2,
            ),
            breaker=BreakerPolicy(failure_threshold=2, open_seconds=0.01),
            probe_interval_seconds=0.005,
        )

    def test_loss_and_stall_mix_degrades_gracefully(self, settings):
        report = run_scenario(self._scenario(settings)).report
        print("\n" + report.summary())
        _assert_typed(report)
        # both faults really happened
        assert report.server_losses == 1
        assert report.lost_servers == ["srv3"]
        kinds = [event["kind"] for event in report.events]
        assert "server_stall" in kinds
        assert "server_loss" in kinds
        # the stalled server's breaker opened on failed probes and was
        # probed back to closed after the window — recovery is
        # probe-driven, not time-healed
        stalled = [
            event
            for event in report.events
            if event["kind"].startswith("breaker") and event["server"] == "srv1"
        ]
        assert [event["kind"] for event in stalled][0] == "breaker_open"
        assert "breaker_closed" in [event["kind"] for event in stalled]
        assert report.breaker_states["srv1"] == "closed"
        # degradation, not collapse: the lost replica's shard queries
        # completed on the surviving replica with identical rows
        assert all(q.status == "done" for q in report.queries)

    def test_sweep_is_deterministic_per_seed(self, settings):
        scenario = self._scenario(settings)
        assert run_scenario(scenario).signature() == run_scenario(scenario).signature()
