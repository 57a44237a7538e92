#!/usr/bin/env python3
"""Print where one query's routers sent its blocks.

Sets up one serial SSB workload of the layered benchmark
(``benchmarks/perf``, imported read-only), runs one of its queries on a
fresh engine and counts, per router, consumer group and home memory
node of the block, the blocks and morsels routed there.  Each group's last
completion is in simulated seconds since the query started.

    python tools/route_mix.py --workload ssb_hybrid_bigblock --query Q4.1
    python tools/route_mix.py --workload ssb_gpu_smallblock --query Q1.1 --quick

A block cut into ``k`` morsels counts once under ``blocks`` and ``k``
times under ``morsels``; a whole block counts once under each, and a
broadcast block once per target.  A block an idle group took back at the
tail counts where it ran, once, and under ``took back`` for the router
and group that took it.  Only :class:`~repro.core.router.Router` methods
are wrapped, and only in this process.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks" / "perf"), str(ROOT / "src")]

from perf_trace import Tracer  # noqa: E402
from perf_workloads import WORKLOADS, SsbSerial  # noqa: E402

from repro.core.router import Router  # noqa: E402

SERIAL = [name for name, cls in WORKLOADS.items() if issubclass(cls, SsbSerial)]


def route_query(workload, query: str):
    """Run ``query`` once; return (blocks, morsels) per ``(router, group,
    node)`` key, (last completion, blocks taken back) per ``(router,
    group)`` key and the query's seconds."""
    target = workload.prepare(Tracer())
    engine = target.system
    start = engine.sim.now
    blocks: Counter = Counter()
    morsels: Counter = Counter()
    last: dict = {}
    took: Counter = Counter()
    taking = []  # the router whose next enqueue is a taken-back block
    cut = set()  # holds each counted Morsels, so no freed id is reused
    enqueue, unqueue, report_done = (
        Router._enqueue, Router._unqueue, Router.report_done
    )

    def counting_enqueue(self, handle, group, instance):
        router = self.name.split(":", 1)[-1]
        key = (router, group.stage.name, handle.node_id)
        morsels[key] += 1
        if handle.morsels is None or handle.morsels not in cut:
            blocks[key] += 1
            if handle.morsels is not None:
                cut.add(handle.morsels)
            if self in taking:
                taking.remove(self)
                took[(router, group.stage.name)] += 1
        return enqueue(self, handle, group, instance)

    def uncounting_unqueue(self, group, queue, items):
        key = (self.name.split(":", 1)[-1], group.stage.name, queue.items[-1].node_id)
        morsels[key] -= items
        blocks[key] -= 1
        taking.append(self)
        return unqueue(self, group, queue, items)

    def timed_report_done(self, group, *args):
        key = (self.name.split(":", 1)[-1], group.stage.name)
        last[key] = self.sim.now - start
        return report_done(self, group, *args)

    Router._enqueue = counting_enqueue
    Router._unqueue = uncounting_unqueue
    Router.report_done = timed_report_done
    try:
        result = engine.query(workload.plans[query], workload.config)
    finally:
        Router._enqueue, Router._unqueue, Router.report_done = (
            enqueue, unqueue, report_done
        )
    return blocks, morsels, last, took, result.seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=SERIAL, required=True)
    parser.add_argument("--query", required=True, help="an SSB id, e.g. Q4.1")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--quick", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    workload.generate(Tracer())
    if args.query not in workload.plans:
        parser.error(f"unknown query {args.query!r}; one of {sorted(workload.plans)}")
    blocks, morsels, last, took, seconds = route_query(workload, args.query)
    print(
        f"{args.workload} {args.query}, seed {args.seed}"
        f"{' (quick)' if args.quick else ''}: {seconds:.4f} simulated seconds"
    )
    print(f"\n{'blocks':>7} {'morsels':>8} {'last done s':>12}  router / group / home node")
    for key in sorted(blocks):
        if not morsels[key]:
            continue  # every block routed here was taken back
        done = last.get(key[:2])
        when = f"{done:12.4f}" if done is not None else f"{'-':>12}"
        print(f"{blocks[key]:>7} {morsels[key]:>8} {when}  {' / '.join(key)}")
    print(f"\n{'took back':>9}  router / group")
    for key in sorted(took):
        print(f"{took[key]:>9}  {' / '.join(key)}")
    if not took:
        print(f"{'-':>9}  no group took a block back")
    return 0


if __name__ == "__main__":
    sys.exit(main())
