"""Figure 5: SSB SF1000 — working sets exceed aggregate GPU memory.

Paper series: 13 SSB queries for DBMS C, Proteus CPUs, Proteus Hybrid,
Proteus GPUs, DBMS G, all data starting in CPU memory.  Claims asserted:

* GPU executions are PCIe-bound (~21 GB/s of the ~24 GB/s aggregate);
* CPU systems beat the GPU ones exactly where they exceed the PCIe rate:
  Q1.1-Q1.3 and Q3.4;
* Proteus Hybrid wins every query (1.5-5.1x vs DBMS C, 3.4-11.4x vs
  DBMS G) and averages ~88.5 % of the summed CPU+GPU throughputs;
* DBMS G: pageable transfers < half bandwidth on flight 1, Q2.2 reverts
  to CPU and takes "more than 1 hour", Q4.3 fails on device memory.
"""

import math

import pytest

from conftest import print_figure
from repro.ssb.harness import run_fig5
from repro.ssb.queries import SSB_QUERY_IDS


@pytest.fixture(scope="module")
def fig5(settings):
    return run_fig5(settings)


def test_fig5_regenerate(benchmark, settings):
    result = benchmark.pedantic(run_fig5, args=(settings,),
                                kwargs={"queries": ["Q1.1"]},
                                rounds=1, iterations=1)
    assert result.seconds["Proteus Hybrid"]["Q1.1"] > 0


def test_fig5_table(fig5):
    print_figure("Figure 5 - SSB SF1000, CPU-resident working sets",
                 fig5.seconds, SSB_QUERY_IDS)
    for key, note in sorted(fig5.notes.items()):
        print(f"  note: {key}: {note}")


def test_gpu_is_pcie_bound(fig5):
    for qid in SSB_QUERY_IDS:
        throughput = fig5.working_set[qid] / fig5.seconds["Proteus GPUs"][qid]
        assert 16e9 <= throughput <= 24.5e9, (
            f"{qid}: Proteus GPU at {throughput/1e9:.1f} GB/s "
            f"(paper: ~21 GB/s, bounded by ~24)")


def test_cpu_beats_gpu_only_on_flight1_and_q34(fig5):
    cpu_wins = {
        qid for qid in SSB_QUERY_IDS
        if fig5.seconds["Proteus CPUs"][qid] < fig5.seconds["Proteus GPUs"][qid]
    }
    assert {"Q1.1", "Q1.2", "Q1.3", "Q3.4"} <= cpu_wins
    assert not cpu_wins - {"Q1.1", "Q1.2", "Q1.3", "Q3.4"}, (
        f"unexpected CPU wins: {cpu_wins}")


def test_hybrid_wins_everywhere(fig5):
    for qid in SSB_QUERY_IDS:
        hybrid = fig5.seconds["Proteus Hybrid"][qid]
        for system in ("DBMS C", "Proteus CPUs", "Proteus GPUs", "DBMS G"):
            other = fig5.seconds[system][qid]
            if math.isnan(other) or math.isinf(other):
                continue
            assert hybrid < other, f"{qid}: hybrid {hybrid} !< {system} {other}"


def test_hybrid_speedup_bands(fig5):
    vs_c = [fig5.speedup("Proteus Hybrid", "DBMS C", q) for q in SSB_QUERY_IDS]
    assert 1.5 <= min(vs_c), f"min speedup vs DBMS C {min(vs_c)} (paper 1.5x)"
    assert max(vs_c) <= 8.0, f"max speedup vs DBMS C {max(vs_c)} (paper 5.1x)"
    vs_g = [fig5.speedup("Proteus Hybrid", "DBMS G", q)
            for q in SSB_QUERY_IDS
            if not math.isinf(fig5.seconds["DBMS G"][q])
            and fig5.seconds["DBMS G"][q] < 100]
    assert min(vs_g) >= 3.0, f"min vs DBMS G {min(vs_g)} (paper 3.4x)"


def test_hybrid_throughput_efficiency(fig5):
    """Hybrid throughput ~ sum of CPU-only and GPU-only throughputs."""
    ratios = []
    for qid in SSB_QUERY_IDS:
        ws = fig5.working_set[qid]
        hybrid = ws / fig5.seconds["Proteus Hybrid"][qid]
        summed = (ws / fig5.seconds["Proteus CPUs"][qid]
                  + ws / fig5.seconds["Proteus GPUs"][qid])
        ratios.append(hybrid / summed)
    average = sum(ratios) / len(ratios)
    assert 0.83 <= average <= 1.05, (
        f"hybrid efficiency {average:.2f} (paper: 0.885)")


class TestTransferOverlap:
    """PR 5 acceptance: double-buffered mem-move prefetching must hide
    transfer latency behind compute on the PCIe-bound GPU executions.

    The same 13 SSB queries, GPU-only at SF1000 (every one PCIe-bound
    per the assertions above), run once with the overlap off
    (``prefetch_depth=1``: a single staging buffer, the DMA on the
    consumer's critical path) and once with the default double-buffered
    prefetch (``prefetch_depth=2``).  Overlap must buy >= 15 % geo-mean
    simulated time, with byte-identical query results.

    Calibration note: the bar is stated against the PR-5 GPU probe
    pricing (``gpu_random_amplification=3.6`` — 32 B transaction
    sectors on 8-16 B probe payloads).  Under the old 1.6 figure, GPU
    compute on the probe flights is short enough that serialising it
    behind the transfers costs only ~9-10 % geo-mean; what overlap can
    hide is exactly the per-block compute time, so this assertion
    moves with that constant by construction.
    """

    @pytest.fixture(scope="class")
    def sweep(self, settings):
        """``(results, totals)``, both keyed by depth: each query's
        result, and the drive's simulated seconds and heap pushes."""
        from repro.engine.config import ExecutionConfig
        from repro.ssb import load_ssb, ssb_query
        from repro.engine.proteus import Proteus
        from scenario import ssb_tables

        tables = ssb_tables(settings.physical_sf, settings.seed)
        out, totals = {}, {}
        for depth in (1, 2):
            engine = Proteus(segment_rows=settings.segment_rows)
            load_ssb(engine, tables=tables, logical_sf=1000.0)
            config = ExecutionConfig.gpu_only(
                settings.gpu_ids, block_tuples=settings.block_tuples,
                prefetch_depth=depth,
            )
            results = out[depth] = {}
            seconds = 0.0
            for qid in SSB_QUERY_IDS:
                results[qid] = engine.query(ssb_query(qid), config)
                # a left fold, never sum(): compensated from Python 3.12 on
                seconds += results[qid].seconds
            totals[depth] = (seconds, engine.sim._seq)
        return out, totals

    def test_simulated_seconds_and_heap_pushes_are_pinned(self, sweep):
        """Exact on every supported Python: a drift means the engine's
        behaviour changed."""
        assert sweep[1] == {
            1: (68.57754318033938, 67_540),
            2: (59.061152311294535, 80_002),
        }

    def test_overlap_beats_serial_by_15_percent_geomean(self, sweep):
        results, _ = sweep
        ratios = {
            qid: results[1][qid].seconds / results[2][qid].seconds
            for qid in SSB_QUERY_IDS
        }
        geomean = math.exp(
            sum(math.log(r) for r in ratios.values()) / len(ratios)
        )
        print("\nprefetch_depth=1 vs 2, simulated seconds:")
        for qid in SSB_QUERY_IDS:
            print(f"  {qid}: serial={results[1][qid].seconds:.3f}s  "
                  f"overlap={results[2][qid].seconds:.3f}s  "
                  f"speedup={ratios[qid]:.3f}x")
        print(f"  geo-mean speedup: {geomean:.3f}x")
        assert geomean >= 1.15, (
            f"overlap bought only {geomean:.3f}x geo-mean "
            f"(acceptance: >= 1.15x)")
        # overlap never loses on any individual query
        assert all(r >= 1.0 - 1e-9 for r in ratios.values()), ratios

    def test_overlap_results_byte_identical(self, sweep):
        results, _ = sweep
        for qid in SSB_QUERY_IDS:
            assert results[1][qid].rows == results[2][qid].rows, qid


def test_dbms_g_out_of_core_behaviours(fig5):
    # flight 1: pageable copies, less than half the pinned bandwidth
    for qid in ("Q1.1", "Q1.2", "Q1.3"):
        throughput = fig5.working_set[qid] / fig5.seconds["DBMS G"][qid]
        assert throughput < 12e9, f"{qid}: DBMS G at {throughput/1e9:.1f} GB/s"
    # Q2.2 reverts to CPU-only execution, "more than 1 hour"
    assert fig5.seconds["DBMS G"]["Q2.2"] > 1000
    # Q4.3 fails: cardinality estimation exceeds device memory
    assert math.isinf(fig5.seconds["DBMS G"]["Q4.3"])
    assert "DBMS G Q4.3" in fig5.notes
