"""Shared settings for the figure-regeneration benchmarks.

Every benchmark runs the corresponding experiment harness once (rounds=1;
the measured quantity of interest is the *simulated* execution time the
harness reports, printed as the paper's rows/series), and asserts the
paper's qualitative shape: who wins, by roughly what factor, and where
the crossovers fall.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from fingerprint import drive
from repro.ssb.harness import FigureResult, HarnessSettings, run_fig5


@pytest.fixture(scope="session")
def settings() -> HarnessSettings:
    return HarnessSettings(physical_sf=0.01, block_tuples=256, segment_rows=2048)


@pytest.fixture(scope="session")
def fig5(settings) -> FigureResult:
    """The whole Fig. 5 harness at ``settings``, run once a session for
    every test that reads it."""
    return drive(run_fig5, settings)


def print_figure(title: str, seconds: dict, query_ids) -> None:
    print(f"\n=== {title} ===")
    systems = list(seconds)
    print(f"{'query':8s}" + "".join(f"{s:>17s}" for s in systems))
    for qid in query_ids:
        row = f"{qid:8s}"
        for system in systems:
            value = seconds[system][qid]
            if value != value:  # NaN
                row += f"{'unsupported':>17s}"
            elif value == float("inf"):
                row += f"{'failed (OOM)':>17s}"
            else:
                row += f"{value:17.3f}"
        print(row)
