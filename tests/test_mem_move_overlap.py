"""Differential + regression suite for transfer/compute overlap.

Covers the mem-move's double-buffered prefetch pipeline (credit-based
staging backpressure, ``prefetch_depth=1`` = overlap off), topology-routed
DMA path selection, the router's locality-first instance tie-breaking,
and the staging-slot accounting on failed/aborted queries:

* results are byte-identical across every prefetch depth x path policy
  combination (the overlap machinery is pure scheduling);
* simulated time never regresses when overlap is enabled;
* staging credits bound the in-flight staging slots per target node;
* a query that dies (or is torn down) with transfers in flight releases
  every staging slot and strands no credit waiter — the regression for
  slots acquired in ``schedule()`` whose consumer never runs its
  release epilogue;
* routing is deterministic and locality-stable under equal queue loads,
  including across repeated seeded concurrent batches.
"""

import numpy as np
import pytest

from repro.algebra.physical import (
    OpPackSink,
    OpReduceSink,
    OpUnpack,
    RouterPolicy,
    SegmentSource,
    Stage,
)
from repro.core.mem_move import MemMove
from repro.core.router import ConsumerGroup, Router
from repro.engine.config import ExecutionConfig
from repro.hardware.costmodel import CostModel
from repro.hardware.sim import Simulator, Store
from repro.hardware.specs import PAPER_SERVER
from repro.hardware.topology import DeviceType, Server
from repro.memory.block import Block, BlockHandle
from repro.memory.managers import BlockManagerSet
from repro.ssb import load_ssb, ssb_query
from scenario import (
    Arrival,
    OpenLoop,
    Scenario,
    Tables,
    build,
    reference_rows,
    run_scenario,
    ssb_tables,
)

DEPTHS = (1, 2, 4)
#: route selection is contention-priced only; the single-valued axis
#: keeps the test ids (``[contention-<depth>]``) the test floor names
POLICIES = ("contention",)

#: one join-free and one join-heavy SSB query exercise both the pure
#: streaming path and the broadcast-build + probe path
QUERIES = ("Q1.1", "Q3.1")


#: the (physical scale factor, seed) of this suite's SSB tables
SF = (0.01, 42)


def _engine(logical_sf=1.0):
    from repro.engine.proteus import Proteus

    engine = Proteus(segment_rows=2048)
    load_ssb(engine, tables=ssb_tables(*SF), logical_sf=logical_sf)
    return engine


class TestDifferential:
    """Byte-identical results across prefetch depths x path policies."""

    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gpu_only_matches_reference(self, depth, policy):
        engine = _engine()
        config = ExecutionConfig.gpu_only(
            [0, 1], block_tuples=512, prefetch_depth=depth
        )
        for qid in QUERIES:
            result = engine.query(ssb_query(qid), config)
            assert sorted(result.rows) == sorted(
                reference_rows(qid, *SF)
            ), f"{qid} depth={depth} policy={policy}"

    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_hybrid_matches_reference(self, depth, policy):
        engine = _engine()
        config = ExecutionConfig.hybrid(
            4, [0, 1], block_tuples=512, prefetch_depth=depth
        )
        for qid in QUERIES:
            result = engine.query(ssb_query(qid), config)
            assert sorted(result.rows) == sorted(
                reference_rows(qid, *SF)
            ), f"{qid} depth={depth} policy={policy}"

    def test_overlap_never_slower_simulated(self):
        """At a PCIe-bound logical scale, depth>=2 must not lose to the
        overlap-off baseline on any query (and must win on at least one)."""
        times = {}
        for depth in (1, 2):
            engine = _engine(logical_sf=1000.0)
            config = ExecutionConfig.gpu_only(
                [0, 1], block_tuples=256, prefetch_depth=depth
            )
            times[depth] = {
                qid: engine.query(ssb_query(qid), config).seconds
                for qid in QUERIES
            }
        for qid in QUERIES:
            assert times[2][qid] <= times[1][qid] * (1 + 1e-9), qid
        assert any(
            times[2][qid] < times[1][qid] * 0.97 for qid in QUERIES
        ), f"overlap bought nothing: {times}"

    def test_staging_conserved_after_each_run(self):
        engine = _engine()
        config = ExecutionConfig.gpu_only(
            [0, 1], block_tuples=512, prefetch_depth=4
        )
        engine.query(ssb_query("Q3.1"), config)
        for node_id, manager in engine.blocks.managers.items():
            assert manager.free_blocks == manager.arena_blocks, node_id


def _mem_move_env(prefetch_depth=2):
    sim = Simulator()
    server = Server.paper_machine(sim)
    blocks = BlockManagerSet(server)
    mem_move = MemMove(
        sim, server, blocks, CostModel(PAPER_SERVER),
        prefetch_depth=prefetch_depth,
    )
    return sim, server, blocks, mem_move


def _remote_handle(nbytes=8000, node="cpu:0", scale=1.0):
    values = np.zeros(nbytes // 8, dtype=np.int64)
    return BlockHandle(Block({"a": values}, node, scale))


class TestPrefetchCredits:
    def test_credits_bound_staged_slots(self):
        sim, _, _, mem_move = _mem_move_env(prefetch_depth=2)
        mem_move.schedule(_remote_handle(), "gpu:0")
        assert mem_move.has_credit("gpu:0")
        mem_move.schedule(_remote_handle(), "gpu:0")
        assert not mem_move.has_credit("gpu:0")
        assert mem_move.staged_outstanding("gpu:0") == 2
        mem_move.release_staged("gpu:0")
        assert mem_move.has_credit("gpu:0")

    def test_credits_are_per_target_node(self):
        _, _, _, mem_move = _mem_move_env(prefetch_depth=1)
        mem_move.schedule(_remote_handle(), "gpu:0")
        assert not mem_move.has_credit("gpu:0")
        assert mem_move.has_credit("gpu:1")

    def test_prefetch_proc_respects_depth(self):
        """The pipeline never holds more than prefetch_depth staging
        slots, even with a slow consumer and a deep input queue."""
        depth = 2
        sim, _, _, mem_move = _mem_move_env(prefetch_depth=depth)
        source = sim.store(name="source")
        fetched = sim.store(capacity=depth, name="fetched")
        peaks = []

        def consumer():
            while True:
                got = fetched.get()
                yield got
                handle = got.value
                if handle is Store.END:
                    return
                peaks.append(mem_move.staged_outstanding("gpu:0"))
                if handle.transfer_done is not None:
                    yield handle.transfer_done
                yield sim.timeout(1e-3)  # slow compute
                if handle.transfer_done is not None:
                    mem_move.release_staged("gpu:0")

        sim.process(mem_move.prefetch_proc(source, fetched, "gpu:0"))
        sim.process(consumer())
        for _ in range(8):
            source.put(_remote_handle())
        source.close()
        sim.run()
        assert mem_move.transfers == 8
        assert max(peaks) <= depth
        assert mem_move.staged_outstanding() == 0

    def test_a_prefetcher_takes_a_block_only_with_a_credit(self):
        """Late binding: with no consumer draining it, a depth-2
        prefetcher stages two blocks and leaves the rest in its source
        queue, where their router can still take them back."""
        sim, _, _, mem_move = _mem_move_env(prefetch_depth=2)
        source = sim.store(name="source")
        fetched = sim.store(capacity=2, name="fetched")
        for _ in range(5):
            source.put(_remote_handle())
        sim.process(mem_move.prefetch_proc(source, fetched, "gpu:0"))
        sim.run()
        assert (len(source), len(fetched)) == (3, 2)
        assert mem_move.staged_outstanding("gpu:0") == mem_move.transfers == 2

    def test_depth_one_serialises_transfers(self):
        """With a single staging buffer the next DMA cannot launch until
        the consumer releases the previous block."""
        sim, server, _, mem_move = _mem_move_env(prefetch_depth=1)
        source = sim.store(name="source")
        fetched = sim.store(capacity=1, name="fetched")
        concurrency = []

        def consumer():
            while True:
                got = fetched.get()
                yield got
                handle = got.value
                if handle is Store.END:
                    return
                concurrency.append(
                    server.gpus[0].link.bandwidth.active_jobs
                )
                if handle.transfer_done is not None:
                    yield handle.transfer_done
                    mem_move.release_staged("gpu:0")

        sim.process(mem_move.prefetch_proc(source, fetched, "gpu:0"))
        sim.process(consumer())
        for _ in range(5):
            source.put(_remote_handle(nbytes=80_000))
        source.close()
        sim.run()
        assert max(concurrency) <= 1


class TestLocalityRule:
    """``MemMove.needs_move`` is the one answer to "must this block be
    transferred before a consumer on that node reads it"."""

    @pytest.mark.parametrize(
        "block_node, consumer_node, moves",
        [
            ("cpu:0", "cpu:0", False),  # same node
            ("gpu:1", "gpu:1", False),
            ("cpu:1", "cpu:0", False),  # a core reads the other socket
            ("cpu:0", "gpu:0", True),
            ("gpu:0", "gpu:1", True),
            ("gpu:0", "cpu:0", True),
        ],
    )
    def test_truth_table(self, block_node, consumer_node, moves):
        _, _, _, mem_move = _mem_move_env()
        handle = _remote_handle(node=block_node)
        assert mem_move.needs_move(handle, consumer_node) is moves

    @pytest.mark.parametrize("consumer_node", ["cpu:0", "gpu:0", "gpu:1"])
    def test_a_handle_in_transfer_never_moves_again(self, consumer_node):
        _, _, _, mem_move = _mem_move_env()
        staged = mem_move.schedule(_remote_handle(node="cpu:0"), "gpu:0")
        assert staged.transfer_done is not None
        assert mem_move.needs_move(staged, consumer_node) is False


class TestStagingAbortAccounting:
    """Satellite regression: slots acquired in schedule() must be
    released when the consumer dies mid-wait, and parked prefetchers
    must not be stranded on credit waiters."""

    def test_abort_reclaims_unreleased_slots(self):
        sim, _, blocks, mem_move = _mem_move_env(prefetch_depth=2)
        mem_move.schedule(_remote_handle(), "gpu:0")
        mem_move.schedule(_remote_handle(), "gpu:0")
        mem_move.abort_outstanding()
        sim.run()
        assert mem_move.staged_outstanding() == 0
        for node_id, manager in blocks.managers.items():
            assert manager.free_blocks == manager.arena_blocks, node_id

    def test_release_after_abort_is_noop(self):
        """The consumer's late epilogue after an abort reclaim must not
        over-release the shared arena."""
        sim, _, blocks, mem_move = _mem_move_env(prefetch_depth=2)
        mem_move.schedule(_remote_handle(), "gpu:0")
        free_before = blocks.managers["gpu:0"].free_blocks
        mem_move.abort_outstanding()
        free_after_abort = blocks.managers["gpu:0"].free_blocks
        assert free_after_abort == free_before + 1
        mem_move.release_staged("gpu:0")  # the race: consumer survived
        assert blocks.managers["gpu:0"].free_blocks == free_after_abort

    def test_abort_wakes_parked_credit_waiters(self):
        sim, _, _, mem_move = _mem_move_env(prefetch_depth=1)
        mem_move.schedule(_remote_handle(), "gpu:0")
        progressed = []

        def parked_prefetcher():
            while not mem_move.has_credit("gpu:0"):
                yield mem_move.await_credit("gpu:0")
            progressed.append(sim.now)

        proc = sim.process(parked_prefetcher())
        mem_move.abort_outstanding()
        sim.run()
        assert proc.triggered and proc.ok
        assert progressed, "prefetcher stranded on a credit waiter"

    def test_failed_query_releases_staged_slots_under_prefetch(self):
        """End to end: a query that dies mid-probe with depth-4 prefetch
        in flight leaves the shared staging arenas whole, and a
        co-resident query is unaffected."""
        from repro.algebra.expressions import col
        from repro.algebra.logical import agg_sum, scan
        from repro.storage import Column, DataType, Table

        # a bare drive: the failing plan needs two non-SSB tables
        server = build(Scenario(server={"max_concurrent": 4}, tables=Tables(*SF)))
        server.register(Table("dup_dim", [
            Column.from_values("dk", DataType.INT64, np.array([1, 1, 2])),
            Column.from_values("dv", DataType.INT64, np.array([7, 8, 9])),
        ]))
        server.register(Table("dup_fact", [
            Column.from_values("fk", DataType.INT64, np.arange(1, 400) % 3),
            Column.from_values("fv", DataType.INT64, np.arange(399)),
        ]))
        bad_plan = (
            scan("dup_fact", ["fk", "fv"])
            .join(scan("dup_dim", ["dk", "dv"]), probe_key="fk",
                  build_key="dk", payload=["dv"])
            .reduce([agg_sum(col("fv"), "s")])
        )
        config = ExecutionConfig.hybrid(2, [0, 1], block_tuples=256,
                                        prefetch_depth=4)
        bad = server.submit(bad_plan, config, name="bad")
        good = server.submit(
            ssb_query("Q1.1"),
            ExecutionConfig.gpu_only([0, 1], block_tuples=512,
                                     prefetch_depth=4),
            name="good",
        )
        server.run()
        assert bad.status == "failed"
        assert good.status == "done"
        assert all(v == 0 for v in
                   server.engine.blocks.unaccounted_blocks().values())
        server.check_conservation()


class TestTakeBackEndToEnd:
    """A hybrid query at coarse blocks, replayed at SF 1000, where idle
    groups take back unstarted blocks at the tail in both directions
    (``core/router.py``'s module docstring)."""

    CONFIG = ExecutionConfig.hybrid(24, [0, 1], block_tuples=2048)
    TABLES = Tables(*SF, logical_sf=1000.0, segment_rows=8192)

    def test_a_taken_back_block_leaves_exactly_once(self, monkeypatch):
        from repro.engine.proteus import Proteus

        victims = []
        unqueue = Router._unqueue

        def counting(router, group, queue, items):
            victims.append(group.stage.device.value)
            return unqueue(router, group, queue, items)

        monkeypatch.setattr(Router, "_unqueue", counting)
        engine = Proteus(segment_rows=self.TABLES.segment_rows)
        load_ssb(engine, tables=ssb_tables(*SF), logical_sf=1000.0)
        for qid in ("Q2.1", "Q4.2"):
            result = engine.query(ssb_query(qid), self.CONFIG)
            assert sorted(result.rows) == sorted(reference_rows(qid, *SF)), qid
        assert set(victims) == {"cpu", "gpu"}, victims

    @pytest.mark.parametrize("at, retried", [
        (5.0, ["device_lost"]),  # the attempt fails, and retries
        (5.3, []),  # GPU 0 ran its last block: the CPU finishes the query
    ], ids=["mid-query", "after-its-last-block"])
    def test_a_gpu_lost_at_the_tail_hangs_nothing(self, at, retried):
        from repro.engine.faults import DeviceLossFault, FaultPlan, RetryPolicy

        loss = DeviceLossFault(gpu_id=0, at_seconds=at)
        server = {
            "fault_plan": FaultPlan(seed=1, device_losses=(loss,)),
            "retry_policy": RetryPolicy(),
        }
        out = run_scenario(Scenario(
            (Arrival("Q4.2", self.CONFIG, name="Q4.2"),), server,
            tables=self.TABLES, budget={"pcie_bytes": 1e15},
        ))
        session = out.sessions["Q4.2"]
        assert session.status == "done"  # and its rows are the reference's
        assert session.retried_classes == retried
        assert out.report.faults["device_losses"] == 1


class TestPausedShareAccounting:
    """The compute/memory split of a paused session must partition every
    demand dimension exactly once — the regression for the QPI window
    being double-counted (kept in the memory share AND released with the
    compute share), which made stall cleanup of a parked cross-socket
    session over-release the budget."""

    def test_shares_partition_every_dimension(self):
        from repro.engine.scheduler import _compute_share, _memory_share
        from repro.hardware.costmodel import QueryDemand

        demand = QueryDemand(dram_bytes=1e9, hbm_bytes=2e9, pcie_bytes=3e9,
                             qpi_bytes=4e9, cpu_cores=6, gpu_units=2)
        compute = _compute_share(demand).as_dict()
        memory = _memory_share(demand).as_dict()
        for dim, total in demand.as_dict().items():
            assert compute[dim] + memory[dim] == total, dim

    def test_stream_windows_travel_with_the_compute_share(self):
        from repro.engine.scheduler import _compute_share, _memory_share
        from repro.hardware.costmodel import QueryDemand

        demand = QueryDemand(pcie_bytes=3e9, qpi_bytes=4e9)
        assert _memory_share(demand).pcie_bytes == 0.0
        assert _memory_share(demand).qpi_bytes == 0.0
        assert _compute_share(demand).qpi_bytes == 4e9


def _gpu_stage(dop=2):
    return Stage("gpu-consumer", DeviceType.GPU,
                 ops=[OpUnpack(["a"]), OpReduceSink([])], dop=dop,
                 affinity=[0, 1][:dop])


def _producer():
    return Stage("producer", DeviceType.CPU, ops=[OpPackSink(["a"])],
                 source=SegmentSource("t", ["a"]))


class TestRouterLocalityTieBreak:
    """Satellite regression: deterministic, locality-stable instance
    selection under equal queue loads."""

    def _route(self, nodes):
        """Route one handle per node through a fresh router whose
        consumers complete instantly (queue loads stay equal)."""
        sim = Simulator()
        server = Server.paper_machine(sim)
        blocks = BlockManagerSet(server)
        mem_move = MemMove(sim, server, blocks, CostModel(PAPER_SERVER))
        group = ConsumerGroup(_gpu_stage(), ["gpu:0", "gpu:1"],
                              transfer_cost=mem_move.projected_cost)
        router = Router(sim, _producer(), [group], RouterPolicy.LOAD_BALANCE)
        landed = {0: [], 1: []}

        def consumer(index):
            queue = group.instance_queues[index]
            while True:
                got = queue.get()
                yield got
                if got.value is Store.END:
                    return
                landed[index].append(got.value.node_id)
                router.report_done(group, index, got.value.node_id)

        sim.process(router.run())
        sim.process(consumer(0))
        sim.process(consumer(1))
        for node in nodes:
            router.input.put(
                BlockHandle(Block({"a": np.zeros(4, dtype=np.int64)}, node))
            )
        router.input.close()
        sim.run()
        return landed

    def test_equal_load_ties_break_toward_local_socket(self):
        # all blocks live on socket 1: under equal loads every tie must
        # go to gpu:1 (same socket), never pile onto the lowest index
        landed = self._route(["cpu:1"] * 6)
        assert landed[0] == []
        assert len(landed[1]) == 6

    def test_interleaved_stream_routes_each_socket_locally(self):
        landed = self._route(["cpu:0", "cpu:1"] * 5)
        assert all(node == "cpu:0" for node in landed[0])
        assert all(node == "cpu:1" for node in landed[1])

    def test_routing_is_deterministic_across_runs(self):
        nodes = ["cpu:1", "cpu:1", "cpu:0", "cpu:1", "cpu:0", "cpu:0"]
        first = self._route(nodes)
        second = self._route(nodes)
        assert first == second

    def test_seeded_concurrent_batches_are_deterministic(self):
        """Two identical seeded concurrent drives produce identical
        routing outcomes — same per-session latencies and results."""
        config = ExecutionConfig.gpu_only([0, 1], block_tuples=512)
        scenario = Scenario(
            (
                *(
                    Arrival(qid, config, name=f"{qid}#{index}")
                    for index, qid in enumerate(("Q1.1", "Q2.1", "Q3.1", "Q4.1"))
                ),
                OpenLoop(("Q1.2",), config, rate_qps=200.0, arrivals=3, seed=7),
            ),
            server={"max_concurrent": 4},
            tables=Tables(*SF),
        )
        assert run_scenario(scenario).signature() == run_scenario(scenario).signature()


class TestPathPolicyDynamics:
    def test_contention_shifts_route_off_loaded_bounce_socket(self):
        """A contended bounce-socket DRAM flips the NUMA-hop choice to
        the direct peer-DMA route, deterministically."""
        sim, server, _, mem_move = _mem_move_env()
        handle = _remote_handle(nbytes=8_000_000, node="cpu:1")
        idle_path = mem_move.select_path("cpu:1", "gpu:0", 8_000_000)
        assert idle_path.key.startswith("numa-hop")
        # ~flood the bounce socket's DRAM with background jobs
        for _ in range(8):
            server.memory_nodes["cpu:0"].bandwidth.submit(
                1e9, rate_cap=5.6e9, label="background"
            )
        loaded_path = mem_move.select_path("cpu:1", "gpu:0", 8_000_000)
        assert loaded_path.key == "qpi-direct"
        # the projected-cost hook the router uses agrees with selection
        assert mem_move.projected_cost(handle, "gpu:0") > 0.0

    def test_path_counts_recorded_per_route(self):
        sim, _, _, mem_move = _mem_move_env()
        mem_move.schedule(_remote_handle(node="cpu:0"), "gpu:0")
        mem_move.schedule(_remote_handle(node="cpu:1"), "gpu:1")
        assert sum(mem_move.path_counts.values()) == 2
        assert "pcie" in mem_move.path_counts  # the same-socket route
        sim.run()


class TestAbortReentrancy:
    """Satellite regressions: ``abort_outstanding`` iterating over live
    dicts, and staged-slot accounting across queries sharing one arena."""

    def test_abort_survives_staged_map_growth_mid_iteration(self):
        """A release during the abort loop can wake a credit waiter whose
        prefetcher re-enters ``schedule()`` for a node the loop has not
        visited — the loop must iterate a snapshot, not the live dict."""
        sim, _, blocks, mem_move = _mem_move_env(prefetch_depth=2)
        mem_move.schedule(_remote_handle(), "gpu:0")
        mem_move.schedule(_remote_handle(), "gpu:0")
        real_release = blocks.release
        woken = []

        def release_and_reschedule(node_id, count=1):
            real_release(node_id, count)
            if not woken:
                # simulate the woken prefetcher: a brand-new target node
                # appears in _staged_outstanding mid-iteration
                woken.append(mem_move.schedule(_remote_handle(), "gpu:1"))

        blocks.release = release_and_reschedule
        mem_move.abort_outstanding()  # raises RuntimeError without snapshot
        blocks.release = real_release
        assert mem_move.staged_outstanding("gpu:0") == 0
        assert mem_move.staged_outstanding("gpu:1") == 1
        mem_move.release_staged("gpu:1")
        assert mem_move.staged_outstanding() == 0

    def test_abort_during_credit_wake_strands_no_waiter(self):
        """A prefetcher parked on ``await_credit`` when the owning query
        aborts must wake, re-check, and proceed — not hang forever."""
        sim, _, _, mem_move = _mem_move_env(prefetch_depth=1)
        mem_move.schedule(_remote_handle(), "gpu:0")  # credit exhausted
        progressed = []

        def parked_prefetcher():
            while not mem_move.has_credit("gpu:0"):
                yield mem_move.await_credit("gpu:0")
            progressed.append(mem_move.schedule(_remote_handle(), "gpu:0"))

        def aborter():
            yield sim.timeout(1e-6)
            mem_move.abort_outstanding()

        sim.process(parked_prefetcher())
        sim.process(aborter())
        sim.run()
        assert len(progressed) == 1
        assert mem_move.staged_outstanding("gpu:0") == 1
        mem_move.release_staged("gpu:0")

    def test_cross_query_abort_release_race_conserves_arena(self):
        """Query A's ``abort_outstanding`` racing query B's normal
        ``release_staged`` on the same shared arena: A's late consumer
        epilogue must be a no-op — it must not return B's slot (or any
        slot) a second time and over-free the arena."""
        sim = Simulator()
        server = Server.paper_machine(sim)
        blocks = BlockManagerSet(server)
        cost = CostModel(PAPER_SERVER)
        move_a = MemMove(sim, server, blocks, cost, prefetch_depth=4)
        move_b = MemMove(sim, server, blocks, cost, prefetch_depth=4)
        handle_a1 = move_a.schedule(_remote_handle(), "gpu:0")
        handle_a2 = move_a.schedule(_remote_handle(), "gpu:0")
        handle_b = move_b.schedule(_remote_handle(), "gpu:0")
        for handle in (handle_a1, handle_a2, handle_b):
            assert handle.transfer_done is not None  # all DMAs launched
        # A dies with both slots in flight; the abort reclaims them
        move_a.abort_outstanding()
        assert move_a.staged_outstanding() == 0
        # A's wedged consumer wakes late and runs its epilogue anyway:
        # must be a no-op, B's slot stays accounted to B
        move_a.release_staged("gpu:0")
        move_a.release_staged("gpu:0")
        assert move_b.staged_outstanding("gpu:0") == 1
        move_b.release_staged("gpu:0")
        assert move_b.staged_outstanding() == 0
        sim.run()
        for node_id, manager in blocks.managers.items():
            assert manager.free_blocks == manager.arena_blocks, node_id
        assert all(v == 0 for v in blocks.unaccounted_blocks().values())

    def test_abort_is_idempotent_after_release_race(self):
        sim, _, blocks, mem_move = _mem_move_env(prefetch_depth=2)
        mem_move.schedule(_remote_handle(), "gpu:0")
        mem_move.abort_outstanding()
        mem_move.release_staged("gpu:0")  # late epilogue: no-op
        mem_move.abort_outstanding()  # second abort: nothing to reclaim
        assert mem_move.staged_outstanding() == 0
        sim.run()
        for node_id, manager in blocks.managers.items():
            assert manager.free_blocks == manager.arena_blocks, node_id
