"""Compare two results of ``run.py`` (same seed): ``compare.py A.json B.json``.

A is the baseline, B the candidate.  Prints one row per workload x
end-to-end metric with the direction and the bound from
``BENCHMARK.json``, and exits 1 when

* a workload or a metric is missing from either file,
* any simulated statistic, share or count differs at all — ``sim_*``,
  ``ok_share`` and every per-layer metric in an exact unit (simulated
  statistics are deterministic per seed: a change meant to speed the
  simulator up must leave every one identical), or
* a host metric of B is worse than A's by more than its bound
  (``setup_s`` additionally has to be worse by more than 0.1 s).

A host metric whose own quartile range is wider than its bound in either
file is marked ``unresolved`` rather than ``ok``: the two medians cannot
be told apart at that bound.  Host-side per-layer metrics are
attribution, not gates; they are not compared here.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

#: units whose values repeat exactly for one seed
EXACT_UNITS = {"sim_s", "1/sim_s", "GB/s", "share", "count", "B", "1/query"}
#: set-up must also be worse by this many seconds to count
SETUP_FLOOR_SECONDS = 0.1


def worsening(metric: dict, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    change = (b - a) / a if a else (0.0 if b == a else float("inf"))
    return change if metric["better"] == "lower" else -change


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], list[str]]:
    """Rows of the end-to-end table and the reasons to fail."""
    rows, errors = [], []
    if (a["seed"], a["quick"]) != (b["seed"], b["quick"]):
        errors.append(
            f"not comparable: seed/quick {a['seed']}/{a['quick']} vs "
            f"{b['seed']}/{b['quick']} (simulated statistics are exact per seed)"
        )
        return rows, errors
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            errors.append(f"{workload}: workload missing")
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ea, eb = ra["end_to_end"].get(name), rb["end_to_end"].get(name)
            if ea is None or eb is None:
                errors.append(f"{workload}: {name} missing")
                continue
            va, vb = ea["value"], eb["value"]
            worse = worsening(metric, va, vb)
            if metric["unit"] in EXACT_UNITS:
                status = "ok" if va == vb else "DIFFERS"
            elif worse > metric["bound"] and (
                name != "setup_s" or vb - va > SETUP_FLOOR_SECONDS
            ):
                status = "WORSE"
            elif any(
                (e["q3"] - e["q1"]) / e["value"] > metric["bound"]
                for e in (ea, eb)
                if "q1" in e
            ):
                status = "unresolved"
            else:
                status = "ok"
            if status.isupper():
                errors.append(f"{workload}: {name} {status} ({va!r} -> {vb!r})")
            rows.append((workload, metric, va, vb, worse, status))
        for metric in spec["per_layer"]:
            name = metric["name"]
            if metric["unit"] not in EXACT_UNITS:
                continue
            la, lb = ra["per_layer"] or {}, rb["per_layer"] or {}
            if name not in la or name not in lb:
                errors.append(f"{workload}: {name} missing")
            elif la[name]["value"] != lb[name]["value"]:
                errors.append(
                    f"{workload}: {name} DIFFERS "
                    f"({la[name]['value']!r} -> {lb[name]['value']!r})"
                )
    return rows, errors


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    loaded = []
    for path in (*argv, BENCHMARK_JSON):
        with open(path) as fh:
            loaded.append(json.load(fh))
    rows, errors = compare(*loaded)
    print(
        f"{'workload':22s}{'metric':26s}{'unit':>8s}{'better':>8s}"
        f"{'A':>14s}{'B':>14s}{'worse by':>10s}{'bound':>8s}  status"
    )
    for workload, metric, va, vb, worse, status in rows:
        exact = metric["unit"] in EXACT_UNITS
        bound = "exact" if exact else f"{metric['bound']:.2g}"
        print(
            f"{workload:22s}{metric['name']:26s}{metric['unit']:>8s}"
            f"{metric['better']:>8s}{va:>14.6g}{vb:>14.6g}{worse:>+10.2%}"
            f"{bound:>8s}  {status}"
        )
    for error in errors:
        print(f"FAIL {error}")
    print("compare: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
