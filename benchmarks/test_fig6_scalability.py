"""Figure 6: scalability of Proteus on SSB SF1000.

Paper series: per query group, speed-up over sequential execution as CPU
cores grow (interleaved across sockets), with and without the two GPUs.
Claims asserted:

* near-linear CPU-only scaling in the low core counts;
* group 1 keeps scaling to the full 24 cores; groups 2-4 flatten past
  ~16 threads ("the benefit of adding more than 16 threads is offset by
  the interference they cause to threads that handle memory transfers");
* two GPUs provide a large boost (the paper equates them to ~8-10 cores
  for group 1 and several extra sockets for groups 2-4).
"""

import pytest

from fingerprint import drive
from repro.ssb.harness import HarnessSettings, run_fig6

CORES = (1, 2, 4, 8, 16, 24)


@pytest.fixture(scope="module")
def fig6(settings):
    small = HarnessSettings(
        physical_sf=settings.physical_sf / 2,
        block_tuples=settings.block_tuples,
        segment_rows=settings.segment_rows,
    )
    return drive(run_fig6, small, core_counts=CORES, gpu_settings=(0, 2))


def test_fig6_regenerate(benchmark, settings):
    small = HarnessSettings(physical_sf=0.002, block_tuples=256,
                            segment_rows=1024)
    result = benchmark.pedantic(
        drive, args=(run_fig6, small),
        kwargs={"core_counts": (1, 4), "gpu_settings": (0,), "groups": (1,)},
        rounds=1, iterations=1,
    )
    assert result["speedups"][(0, 1)][4] > 1


def test_fig6_series(fig6):
    print("\n=== Figure 6 - speed-up over sequential execution ===")
    for (gpus, group), values in sorted(fig6["speedups"].items()):
        series = " ".join(
            f"{cores}c:{values[cores]:.1f}" for cores in sorted(values)
        )
        print(f"  {gpus} GPUs, group {group}: {series}")


def test_cpu_scaling_near_linear_low_core_counts(fig6):
    for group in (1, 2, 3, 4):
        speedups = fig6["speedups"][(0, group)]
        for cores in (2, 4, 8):
            coefficient = speedups[cores] / cores
            assert coefficient >= 0.8, (
                f"group {group} at {cores} cores: {coefficient:.2f}")


def test_group1_scales_further_than_others(fig6):
    g1 = fig6["speedups"][(0, 1)][24]
    for group in (2, 3, 4):
        other = fig6["speedups"][(0, group)][24]
        assert g1 > other, f"group 1 ({g1:.1f}) !> group {group} ({other:.1f})"


def test_groups_2_to_4_flatten_past_16_threads(fig6):
    for group in (2, 3, 4):
        speedups = fig6["speedups"][(0, group)]
        gain = speedups[24] / speedups[16]
        assert gain < 1.25, f"group {group} still scaling past 16: {gain:.2f}"


def test_gpus_improve_performance(fig6):
    for group in (1, 2, 3, 4):
        with_gpus = fig6["speedups"][(2, group)]
        without = fig6["speedups"][(0, group)]
        for cores in (1, 8, 16):
            assert with_gpus[cores] > without[cores], (
                f"group {group}, {cores} cores: GPUs did not help")


def test_two_gpus_worth_many_cores(fig6):
    """Paper: 2 GPUs ~ 8-10 cores for group 1, more for groups 2-4."""
    for group in (1, 2, 3, 4):
        gpu_only = fig6["speedups"][(2, group)][0]
        assert gpu_only >= fig6["speedups"][(0, group)][8], (
            f"group {group}: 2 GPUs ({gpu_only:.1f}) worth < 8 cores")
