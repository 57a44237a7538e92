"""Ablation benches for three design choices of the engine.

Not paper figures — these isolate the mechanisms behind them:

* probe-order optimisation (the rank rule) is what makes Q3.4 CPU-friendly;
* DMA arbitration priority is what keeps GPUs fed when all 24 cores load
  the memory bus (Figure 6's bounded interference);
* block granularity trades kernel-launch/routing overhead against
  pipelining (the paper's block-at-a-time argument, Section 3.2).
"""

from repro.engine.config import ExecutionConfig
from repro.engine.proteus import Proteus
from repro.ssb import load_ssb, ssb_query
from scenario import ssb_tables


def _engine(logical_sf=1000.0):
    engine = Proteus(segment_rows=2048)
    load_ssb(engine, tables=ssb_tables(0.01, 42), logical_sf=logical_sf)
    return engine


def test_ablation_join_order(benchmark):
    """Q3.4 on CPUs with and without selectivity-aware probe ordering."""

    def run():
        optimized = _engine()
        baseline = _engine()
        baseline.placer.optimize_join_order = False
        config = ExecutionConfig.cpu_only(24, block_tuples=256)
        return (optimized.query(ssb_query("Q3.4"), config).seconds,
                baseline.query(ssb_query("Q3.4"), config).seconds)

    with_opt, without = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nQ3.4 CPU: optimised probe order {with_opt:.2f}s, "
          f"plan order {without:.2f}s ({without/with_opt:.1f}x)")
    assert with_opt < without / 1.5, (
        "probing the cached, highly selective date table first should be "
        "a >1.5x win on Q3.4")


def test_ablation_dma_priority(benchmark, monkeypatch):
    """Hybrid Q2.1 with and without DMA arbitration priority."""
    from repro.core import mem_move as mem_move_module

    config = ExecutionConfig.hybrid(24, [0, 1], block_tuples=256)

    def run():
        prioritised = _engine().query(ssb_query("Q2.1"), config).seconds
        monkeypatch.setattr(mem_move_module, "DMA_WEIGHT", 1.0)
        try:
            fair = _engine().query(ssb_query("Q2.1"), config).seconds
        finally:
            monkeypatch.undo()
        return prioritised, fair

    prioritised, fair = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nQ2.1 hybrid: DMA weight 3 -> {prioritised:.2f}s, "
          f"weight 1 -> {fair:.2f}s")
    assert prioritised <= fair * 1.05, (
        "removing DMA priority should not make the hybrid faster")


def test_ablation_block_granularity(benchmark):
    """Q1.1 on GPUs across block sizes: tiny blocks pay per-block
    overheads (launches, routing), huge blocks lose pipelining."""

    def run():
        out = {}
        for block_tuples in (32, 256, 2048):
            engine = _engine(logical_sf=100.0)
            for name in engine.catalog.tables:
                engine.place_gpu_partitioned(name, seed=42)
            config = ExecutionConfig.gpu_only([0, 1],
                                              block_tuples=block_tuples)
            out[block_tuples] = engine.query(ssb_query("Q1.1"),
                                             config).seconds
        return out

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nQ1.1 GPU by block size: "
          + " ".join(f"{k}t:{v*1e3:.1f}ms" for k, v in times.items()))
    # per-block overheads dominate at tiny granularity
    assert times[32] > times[256]
