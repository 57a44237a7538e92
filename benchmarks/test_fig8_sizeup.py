"""Figure 8: HetExchange overhead at degree of parallelism 1 (size-up).

Paper series: execution time vs input size (0.125-16 GB) for Proteus with
and without the HetExchange operators, sequential execution on one CPU
core (top) and one GPU (bottom), for the sum and join queries.  Claims:

* performance is almost identical (<= ~10 % difference) above ~512 MB-1GB,
  the block-at-a-time operators amortising their overheads;
* below that, the ~10 ms router initialisation / thread pinning becomes
  visible (the paper reports up to ~50 % on a small GPU sum).
"""

import pytest

from fingerprint import drive
from repro.micro.harness import MicroSettings, run_sizeup

SIZES = (0.0625, 0.125, 0.25, 0.5, 1, 2, 4, 8, 16)


@pytest.fixture(scope="module")
def micro_settings():
    return MicroSettings(physical_rows=100_000, block_tuples=512,
                         segment_rows=4096)


@pytest.fixture(scope="module", params=["sum", "join"])
def query(request):
    return request.param


@pytest.fixture(scope="module", params=["cpu", "gpu"])
def device(request):
    return request.param


@pytest.fixture(scope="module")
def fig8(query, device, micro_settings):
    return drive(run_sizeup, query, micro_settings, sizes_gb=SIZES, device=device)


def test_fig8_regenerate(benchmark, micro_settings):
    result = benchmark.pedantic(
        drive, args=(run_sizeup, "sum", micro_settings),
        kwargs={"sizes_gb": (1.0,), "device": "cpu"},
        rounds=1, iterations=1,
    )
    assert result["overhead"][1.0] < 0.2


def test_fig8_series(fig8):
    print(f"\n=== Figure 8 ({fig8['query']}, {fig8['device']}) ===")
    print(f"{'GB':>8s} {'with-HetExchange':>18s} {'without':>12s} {'overhead':>9s}")
    for size in SIZES:
        print(f"{size:8.4f} {fig8['with_hetexchange'][size]:18.5f} "
              f"{fig8['without_hetexchange'][size]:12.5f} "
              f"{fig8['overhead'][size]*100:8.1f}%")


def test_overhead_amortised_above_1gb(fig8):
    for size in (1, 2, 4, 8, 16):
        assert fig8["overhead"][size] <= 0.15, (
            f"{fig8['query']}/{fig8['device']} at {size} GB: "
            f"{fig8['overhead'][size]*100:.0f}% overhead (paper: <= ~10%)")


def test_overhead_negligible_at_16gb(fig8):
    assert fig8["overhead"][16] <= 0.05


def test_overhead_visible_on_small_inputs(fig8):
    """The fixed ~10 ms router init must dominate somewhere below 512 MB
    (the paper's up-to-50 % region) for at least the GPU runs."""
    if fig8["device"] == "gpu":
        assert fig8["overhead"][0.0625] >= 0.3
    # monotone amortisation: overhead never increases with input size
    values = [fig8["overhead"][s] for s in SIZES]
    assert all(a >= b - 0.02 for a, b in zip(values, values[1:]))


def test_times_grow_with_input(fig8):
    times = [fig8["with_hetexchange"][s] for s in SIZES]
    assert all(a < b for a, b in zip(times, times[1:]))
