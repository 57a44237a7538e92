"""Ensure the in-tree package is importable even without `pip install -e .`

(the sandbox used for CI has no `wheel` package, so PEP 660 editable
installs are unavailable; a `.pth` file or this shim serves the same
purpose).

Also defines the ``slow`` marker tier: long-running benchmarks (the
multi-query saturation sweeps) are opt-in.  They are skipped by default
and run with ``pytest --runslow`` (or selected with ``-m slow``); the
fast tier is what ``pytest -m "not slow"`` and plain ``pytest`` run.
"""

import os
import sys

import pytest

# src/ for the package; tests/ for the scenario harness (tests/scenario.py)
# that both tests/ and benchmarks/ import
for _dir in ("src", "tests"):
    _path = os.path.join(os.path.dirname(__file__), _dir)
    if _path not in sys.path:
        sys.path.insert(0, _path)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow (saturation sweeps, big batches)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: opt-in long-running benchmark (run with --runslow)"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    if "slow" in config.getoption("-m", default=""):
        return  # explicit -m slow selection overrides the default skip
    skip_slow = pytest.mark.skip(reason="slow tier: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
