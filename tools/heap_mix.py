#!/usr/bin/env python3
"""Print a drive's simulator heap entries by kind.

Sets up one workload of the layered benchmark (``benchmarks/perf``,
imported read-only), drives it once and counts every entry the event
loop pops during that drive.  A triggered event is counted by its class
and name format (``Event put:{}``, ``Timeout Timeout({:g})``), any other
entry by the qualname of its callback (``Process._resume``,
``BandwidthResource._on_tick``).  Digits in plain-string names read
``#``, so per-query names fold into one kind.  ``idle`` counts the
events popped with no callback left to run.

    python tools/heap_mix.py --workload ssb_gpu_smallblock --seed 42
    python tools/heap_mix.py --workload serve_overload --seed 7 --quick

Set-up (and a serving workload's warm-up) runs before counting starts,
so the total is the drive's heap pushes when its heap drains.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from heapq import heappop
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks" / "perf"), str(ROOT / "src")]

from perf_trace import Tracer  # noqa: E402
from perf_workloads import WORKLOADS  # noqa: E402

from repro.hardware import sim as des  # noqa: E402


def _kind(fn, arg) -> str:
    if fn is not None:
        return fn.__qualname__
    name = arg._name
    text = name[0] if isinstance(name, tuple) else re.sub(r"\d+", "#", name)
    return f"{type(arg).__name__} {text}".rstrip()


def count_drive(workload) -> tuple[Counter, Counter, object]:
    """Drive ``workload`` once; return (entries, idle events, observation)."""
    tracer = Tracer()
    workload.generate(tracer)
    target = workload.prepare(tracer)
    entries: Counter = Counter()
    idle: Counter = Counter()

    def counting_pop(heap):
        entry = heappop(heap)
        kind = _kind(entry[3], entry[2])
        entries[kind] += 1
        if entry[3] is None and not entry[2].callbacks:
            idle[kind] += 1
        return entry

    des.heappop = counting_pop
    try:
        raw = workload.drive(target, tracer)
    finally:
        des.heappop = heappop
    return entries, idle, workload.observe(target, raw, tracer)


def _n(value: float) -> str:
    return f"{value:,.0f}".replace(",", " ")


def _table(title: str, entries: Counter, idle: Counter, total: int) -> None:
    print(f"\n{'entries':>8} {'%':>6} {'idle':>7}  {title}")
    for kind, count in entries.most_common():
        share = 100.0 * count / total
        print(f"{_n(count):>8} {share:6.1f} {_n(idle[kind]):>7}  {kind}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--quick", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    entries, idle, observation = count_drive(workload)
    total = sum(entries.values())
    counters = observation.counters
    print(
        f"{args.workload}, seed {args.seed}{' (quick)' if args.quick else ''}: "
        f"{_n(total)} heap entries popped in one drive; "
        f"{_n(counters['core.mem_move.transfers'])} transfers, "
        f"{_n(counters['core.ops.kernels_launched'])} GPU kernels"
    )
    by_class: Counter = Counter()
    idle_by_class: Counter = Counter()
    for kind, count in entries.items():
        cls = kind.split(" ")[0]
        by_class[cls] += count
        idle_by_class[cls] += idle[kind]
    _table("class or callback", by_class, idle_by_class, total)
    _table("kind", entries, idle, total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
