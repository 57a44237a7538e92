"""Timing-model properties: the behaviours the figures are built from.

These assert *simulated-time* relationships on small workloads — the
micro-level counterparts of the paper's macro observations.
"""

import numpy as np
import pytest

from repro import ExecutionConfig, Proteus, agg_count, agg_sum, col, scan
from repro.ssb import load_ssb, ssb_queries
from repro.storage import Column, DataType, Table
from scenario import ssb_tables


def _engine(rows=50_000, scale=50_000.0, seed=5, segment_rows=2048):
    rng = np.random.default_rng(seed)
    engine = Proteus(segment_rows=segment_rows)
    engine.register(Table("t", [
        Column.from_values("a", DataType.INT64, rng.integers(0, 100, rows)),
        Column.from_values("k", DataType.INT32, rng.integers(0, 1000, rows)),
    ]))
    engine.register(Table("d", [
        Column.from_values("dk", DataType.INT32, np.arange(1000)),
    ]))
    engine.catalog.set_logical_scale("t", scale)   # ~30 GB stream
    return engine


SUM = scan("t", ["a"]).reduce([agg_sum(col("a"), "s")])
JOIN = (scan("t", ["a", "k"])
        .join(scan("d", ["dk"]), probe_key="k", build_key="dk", payload=[])
        .reduce([agg_count("n")]))


def test_cpu_scaling_is_monotone():
    times = [
        _engine().query(SUM, ExecutionConfig.cpu_only(n, block_tuples=512)).seconds
        for n in (1, 2, 4, 8, 16)
    ]
    assert all(a > b for a, b in zip(times, times[1:]))
    # near-linear early on
    assert times[0] / times[2] > 3.2


def test_cpu_scaling_saturates_at_memory_bandwidth():
    """Speed-up flattens once the socket DRAM is saturated (Figure 7)."""
    t16 = _engine().query(SUM, ExecutionConfig.cpu_only(16, block_tuples=512)).seconds
    t24 = _engine().query(SUM, ExecutionConfig.cpu_only(24, block_tuples=512)).seconds
    assert t16 / t24 < 1.15
    throughput = 50_000 * 8 * 50_000 / t24
    assert 70e9 < throughput < 95e9  # machine bandwidth ~90.6 GB/s


def test_two_gpus_double_pcie_throughput():
    one = _engine().query(SUM, ExecutionConfig.gpu_only([0], block_tuples=512)).seconds
    two = _engine().query(SUM, ExecutionConfig.gpu_only([0, 1], block_tuples=512)).seconds
    assert one / two == pytest.approx(2.0, rel=0.15)
    # and each link runs near its 12 GB/s
    throughput = 50_000 * 8 * 50_000 / one
    assert 9e9 < throughput < 12.5e9


def test_gpu_streaming_is_pcie_bound_not_hbm_bound():
    """Out-of-core GPU time tracks the PCIe rate, not the 320 GB/s HBM."""
    seconds = _engine().query(SUM, ExecutionConfig.gpu_only([0, 1],
                                                            block_tuples=512)).seconds
    stream = 50_000 * 8 * 50_000
    assert seconds > stream / 26e9  # cannot beat the aggregate links
    assert seconds < stream / 18e9  # but overlap keeps them nearly full


def test_transfers_overlap_kernels():
    """Prefetching mem-move: makespan ~ transfer time, not transfer+kernel."""
    engine = _engine()
    result = engine.query(SUM, ExecutionConfig.gpu_only([0], block_tuples=512))
    stream = 50_000 * 8 * 50_000
    transfer_floor = stream / 12e9
    # allow init + one un-overlapped block, but not 2x (serial would be
    # transfer + kernel per block)
    assert result.seconds < transfer_floor * 1.25


def test_hybrid_at_least_as_fast_as_best_single_device():
    engine = _engine()
    cpu = engine.query(JOIN, ExecutionConfig.cpu_only(24, block_tuples=512)).seconds
    gpu = engine.query(JOIN, ExecutionConfig.gpu_only([0, 1], block_tuples=512)).seconds
    hybrid = engine.query(JOIN, ExecutionConfig.hybrid(24, [0, 1],
                                                       block_tuples=512)).seconds
    assert hybrid <= min(cpu, gpu) * 1.1


def test_hybrid_keeps_up_with_the_best_device_on_a_coarse_stream():
    """Few blocks per worker: routing is settled before any group has a
    measured rate, so the router must price blocks from the start.
    Handing the 24-core CPU group most blocks at t = 0 makes Q2.1 take
    7.33 s against 4.57 s GPU-only."""
    engine = Proteus(segment_rows=8192)
    load_ssb(engine, tables=ssb_tables(0.01, 42), logical_sf=1000.0)
    cpu = ExecutionConfig.cpu_only(24, block_tuples=4096)
    gpu = ExecutionConfig.gpu_only([0, 1], block_tuples=4096)
    hybrid = ExecutionConfig.hybrid(24, [0, 1], block_tuples=4096)
    for qid, plan in ssb_queries().items():
        best = min(engine.query(plan, cpu).seconds, engine.query(plan, gpu).seconds)
        seconds = engine.query(plan, hybrid).seconds
        assert seconds <= 1.05 * best, f"{qid}: hybrid {seconds} vs {best}"


def test_hetexchange_overhead_shrinks_with_input():
    """Figure 8 in miniature: relative overhead decreases with size."""
    overheads = []
    for scale in (200.0, 20_000.0):
        with_het = _engine(scale=scale).query(
            SUM, ExecutionConfig.cpu_only(1, block_tuples=512)).seconds
        bare = _engine(scale=scale).query(
            SUM, ExecutionConfig.bare_cpu(block_tuples=512)).seconds
        overheads.append(with_het / bare - 1)
    assert overheads[0] > overheads[1]
    assert overheads[1] < 0.1


def test_interleaved_placement_beats_single_socket():
    """NUMA: one socket's DRAM bounds a 24-core scan at half the rate."""
    from repro.storage.table import Placement, Segment

    rng = np.random.default_rng(5)
    rows = 50_000
    values = rng.integers(0, 100, rows)

    def run(single_socket: bool) -> float:
        engine = Proteus(segment_rows=2048)
        table = Table("t", [Column.from_values("a", DataType.INT64, values)])
        if single_socket:
            placement = Placement([Segment("t", 0, rows, "cpu:0")])
            engine.register(table, placement)
        else:
            engine.register(table)
        engine.catalog.set_logical_scale("t", 50_000.0)
        return engine.query(SUM, ExecutionConfig.cpu_only(
            24, block_tuples=512)).seconds

    assert run(single_socket=True) > run(single_socket=False) * 1.6


def test_simulated_time_independent_of_wall_time():
    """Determinism: identical runs give identical simulated times."""
    a = _engine().query(JOIN, ExecutionConfig.hybrid(6, [0, 1],
                                                     block_tuples=512)).seconds
    b = _engine().query(JOIN, ExecutionConfig.hybrid(6, [0, 1],
                                                     block_tuples=512)).seconds
    assert a == b
