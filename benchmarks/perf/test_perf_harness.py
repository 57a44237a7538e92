"""The benchmark harness checks itself (``--quick`` sizes, a few seconds).

``BENCHMARK.json`` and the harness must agree on every name; simulated
statistics and counts must repeat exactly for one seed; ``compare.py``
must pass a file against itself and catch both a host regression and a
one-ulp drift of a simulated statistic.
"""

import copy
import importlib.util
import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _load(filename):
    # by path, under a perf_ name: a top-level module called `run` or
    # `compare` is too easy to shadow
    name = "perf_" + filename[:-3]
    spec = importlib.util.spec_from_file_location(name, os.path.join(HERE, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run.py")
compare = _load("compare.py")

with open(compare.BENCHMARK_JSON) as _fh:
    SPEC = json.load(_fh)
BOUNDS = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}


def _quick(seed, tmp):
    run.OUT_DIR = str(tmp)  # trace files go to the test's directory
    return {
        "out_dir": str(tmp),
        "seed": seed,
        "quick": True,
        "workloads": {
            name: run.run_workload(name, seed, 0.0, trace=True, quick=True)
            for name in run.WORKLOADS
        },
    }


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    return _quick(42, tmp_path_factory.mktemp("perf"))


def test_benchmark_json_within_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


def test_declared_and_emitted_metrics_agree(result):
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        for name, workload in result["workloads"].items():
            emitted = {m: e["unit"] for m, e in workload[section].items()}
            assert emitted == declared, (name, section)
            assert all(
                math.isfinite(entry["value"]) for entry in workload[section].values()
            ), (name, section)


def test_quick_run_is_correct_and_traced(result):
    for name, workload in result["workloads"].items():
        assert workload["correct"] and workload["failed"] == 0, workload["problems"]
        assert workload["attempted"] >= 1
        assert all(e["value"] != 0 for e in workload["end_to_end"].values()), name
        layers = workload["per_layer"]
        shares = [e["value"] for m, e in layers.items() if m.endswith("_self_pct")]
        assert sum(shares) == pytest.approx(100.0), name
        # the layers' self times partition the traced drive's wall time
        traced = (
            layers["trace.overhead_ratio"]["value"]
            * workload["end_to_end"]["host_drive_s"]["value"]
        )
        assert layers["trace.profiled_s"]["value"] == pytest.approx(traced, rel=0.05)
    with open(os.path.join(result["out_dir"], "trace-serve_overload.json")) as fh:
        events = json.load(fh)["traceEvents"]
    assert {event["pid"] for event in events} == {1, 2}
    assert any(event["name"] == "EngineServer.run" for event in events)
    assert any(event["name"] == "queue" for event in events)


def test_simulated_statistics_repeat_exactly_per_seed(result, tmp_path):
    again = _quick(42, tmp_path)
    for name, first in result["workloads"].items():
        second = again["workloads"][name]
        for section in ("end_to_end", "per_layer"):
            for metric, entry in first[section].items():
                if entry["unit"] in compare.EXACT_UNITS:
                    assert second[section][metric]["value"] == entry["value"], (
                        name,
                        metric,
                    )


def test_second_seed_gives_different_arrivals():
    schedules = []
    for seed in (42, 43):
        workload = run.WORKLOADS["serve_steady"](seed, quick=True)
        workload.generate(run.Tracer())
        schedules.append([arrival.at for arrival in workload.schedule])
    assert schedules[0] != schedules[1]
    assert len(schedules[0]) == len(schedules[1])


def _compare(tmp_path, a, b):
    paths = []
    for label, data in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{label}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(data, fh)
    return compare.main(paths)


def test_compare_passes_a_file_against_itself(result, tmp_path):
    assert _compare(tmp_path, result, result) == 0


def test_compare_fails_on_host_regression(result, tmp_path):
    slower = copy.deepcopy(result)
    entry = slower["workloads"]["serve_steady"]["end_to_end"]["host_drive_s"]
    entry["value"] *= 1.0 + 2 * BOUNDS["host_drive_s"]
    assert _compare(tmp_path, result, slower) == 1


def test_compare_fails_on_one_ulp_of_simulated_drift(result, tmp_path):
    drifted = copy.deepcopy(result)
    entry = drifted["workloads"]["fleet_failover"]["end_to_end"]["sim_makespan_s"]
    entry["value"] = math.nextafter(entry["value"], math.inf)
    assert _compare(tmp_path, result, drifted) == 1


def test_compare_fails_on_missing_workload_and_other_seed(result, tmp_path):
    missing = copy.deepcopy(result)
    del missing["workloads"]["layer_micro"]
    assert _compare(tmp_path, result, missing) == 1
    other_seed = dict(result, seed=43)
    assert _compare(tmp_path, result, other_seed) == 1


def test_command_line_contract():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "layer_micro"]
        + ["--seed", "7", "--seconds", "0", "--trace", "0", "--quick"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(e) == {"value", "unit"} for e in last["metrics"].values())
