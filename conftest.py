"""Ensure the in-tree package is importable even without `pip install -e .`

(the sandbox used for CI has no `wheel` package, so PEP 660 editable
installs are unavailable; a `.pth` file or this shim serves the same
purpose).

Also defines the ``slow`` marker tier: long-running benchmarks (the
multi-query saturation sweeps) are opt-in.  They are skipped by default
and run with ``pytest --runslow`` (or selected with ``-m slow``); the
fast tier is what ``pytest -m "not slow"`` and plain ``pytest`` run.

And the session ends of the drive fingerprints (``tests/fingerprint.py``):
a regeneration writes what every drive reached, and a full run lists the
committed entries no drive reached.
"""

import json
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


def pytest_sessionfinish(session):
    fingerprint = sys.modules.get("fingerprint")
    if fingerprint is not None and fingerprint.WRITE_TO:
        entries = {
            key: {**entry, "test": fingerprint.TESTS[key]}
            for key, entry in fingerprint.REACHED.items()
        }
        with open(fingerprint.WRITE_TO, "w") as out:
            json.dump(entries, out)


def pytest_terminal_summary(terminalreporter, config):
    fingerprint = sys.modules.get("fingerprint")
    stats = terminalreporter.stats
    partial = config.args_source == config.ArgsSource.ARGS or any(
        (config.option.keyword, config.option.markexpr, stats.get("deselected"))
    )
    broken = stats.get("failed") or stats.get("error")
    if fingerprint is None or fingerprint.WRITE_TO or partial or broken:
        return
    # a skipped test (the slow tier, unless --runslow) reaches no drive
    skipped = {report.nodeid for report in stats.get("skipped", ())}
    stale = [
        f"{key} ({entry['test']})"
        for key, entry in sorted(fingerprint.committed().items())
        if key not in fingerprint.REACHED and entry["test"] not in skipped
    ]
    if stale:
        terminalreporter.write_sep("=", f"{len(stale)} fingerprint(s) no drive reached")
        for line in stale:
            terminalreporter.write_line(line)
