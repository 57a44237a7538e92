"""Headline numeric claims from the paper's abstract and summaries.

* Abstract: "efficiently exploiting CPU-GPU parallelism can provide 2.8x
  and 6.4x improvement in performance compared to state-of-the-art
  CPU-based and GPU-based DBMS" (SSB geometric means at SF1000);
* Section 6.2 summary: hybrid achieves 1.5-5.1x vs the CPU DBMS and
  3.4-11.4x vs the GPU DBMS, and up to 5.6x / 3.9x against Proteus'
  own CPU-/GPU-restricted configurations;
* hybrid throughput averages ~88.5 % of the sum of CPU and GPU
  throughputs.

Exact constants depend on the authors' hardware; the assertions pin the
bands, not the decimals (each test prints the values it measured).
"""

import math

import pytest

from fingerprint import drive
from repro.ssb.harness import run_fig5
from repro.ssb.queries import SSB_QUERY_IDS


@pytest.fixture(scope="module")
def fig5(settings):
    return drive(run_fig5, settings)


def _geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_summary_regenerate(benchmark, settings):
    result = benchmark.pedantic(drive, args=(run_fig5, settings),
                                kwargs={"queries": ["Q4.3"]},
                                rounds=1, iterations=1)
    assert result.seconds["Proteus Hybrid"]["Q4.3"] > 0


def test_headline_speedups(fig5):
    vs_cpu = [fig5.speedup("Proteus Hybrid", "DBMS C", q) for q in SSB_QUERY_IDS]
    comparable_g = [
        q for q in SSB_QUERY_IDS
        if not math.isinf(fig5.seconds["DBMS G"][q])
        and fig5.seconds["DBMS G"][q] < 100
    ]
    vs_gpu = [fig5.speedup("Proteus Hybrid", "DBMS G", q) for q in comparable_g]
    print(f"\nhybrid vs DBMS C: geomean {_geomean(vs_cpu):.1f}x "
          f"(range {min(vs_cpu):.1f}-{max(vs_cpu):.1f}; paper 1.5-5.1x, mean 2.8x)")
    print(f"hybrid vs DBMS G: geomean {_geomean(vs_gpu):.1f}x "
          f"(range {min(vs_gpu):.1f}-{max(vs_gpu):.1f}; paper 3.4-11.4x, mean 6.4x)")
    assert 1.5 <= _geomean(vs_cpu) <= 5.0
    assert 3.0 <= _geomean(vs_gpu) <= 12.0


def test_hybrid_vs_own_restricted_configs(fig5):
    vs_own_cpu = [fig5.speedup("Proteus Hybrid", "Proteus CPUs", q)
                  for q in SSB_QUERY_IDS]
    vs_own_gpu = [fig5.speedup("Proteus Hybrid", "Proteus GPUs", q)
                  for q in SSB_QUERY_IDS]
    print(f"hybrid vs Proteus CPUs: up to {max(vs_own_cpu):.1f}x (paper: 5.6x)")
    print(f"hybrid vs Proteus GPUs: up to {max(vs_own_gpu):.1f}x (paper: 3.9x)")
    assert 1.0 <= min(vs_own_cpu) and max(vs_own_cpu) <= 7.0
    assert 1.0 <= min(vs_own_gpu) and max(vs_own_gpu) <= 5.0


def test_hybrid_efficiency_close_to_paper(fig5):
    ratios = []
    for qid in SSB_QUERY_IDS:
        ws = fig5.working_set[qid]
        hybrid = ws / fig5.seconds["Proteus Hybrid"][qid]
        summed = (ws / fig5.seconds["Proteus CPUs"][qid]
                  + ws / fig5.seconds["Proteus GPUs"][qid])
        ratios.append(hybrid / summed)
    average = sum(ratios) / len(ratios)
    print(f"hybrid efficiency: {average*100:.0f}% of summed throughputs "
          f"(paper: 88.5%)")
    assert 0.83 <= average <= 1.05
