"""Layer micro-suite: each layer's public functions driven in isolation.

One :func:`run_suite` call is one *drive* of the ``layer_micro``
workload, and it also runs (repeated, median) in every traced run so
that each workload's per-layer ledger carries the same layer-speed
figures.  Every piece is sized to ~0.1 s of host time: long enough to
swamp timer resolution, short enough that the whole suite fits a drive.

Host rates (``*_per_s``, ``*_ms``) are noisy and reported as medians;
the simulated side of the DES pieces (final clocks, per-job latencies)
is deterministic and goes into the drive's reproducibility signature.
Inputs are drawn from a seeded ``numpy`` generator — the program sees
only generated inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.mem_move import MemMove
from repro.engine.config import ExecutionConfig
from repro.engine.proteus import Proteus
from repro.engine.scheduler import EngineServer
from repro.hardware.costmodel import CostModel
from repro.hardware.resources import BandwidthResource, FifoResource
from repro.hardware.sim import Simulator
from repro.hardware.specs import PAPER_SERVER
from repro.hardware.topology import Server
from repro.jit.hashtable import HashTable
from repro.memory.block import Block, BlockHandle
from repro.memory.managers import BlockManagerSet
from repro.ssb import SSB_QUERY_IDS, generate_ssb, load_ssb, ssb_query

#: per-layer metric name -> unit, in catalogue order
MICRO_METRICS = {
    "hardware.sim.timeouts_per_s": "1/s",
    "hardware.sim.store_handoffs_per_s": "1/s",
    "hardware.resources.fifo_ops_per_s": "1/s",
    "hardware.resources.bw_jobs_per_s_k1": "1/s",
    "hardware.resources.bw_jobs_per_s_k8": "1/s",
    "hardware.resources.bw_jobs_per_s_k32": "1/s",
    "jit.hashtable.insert_mtuples_per_s": "Mtuples/s",
    "jit.hashtable.probe_mtuples_per_s_b256": "Mtuples/s",
    "jit.hashtable.probe_mtuples_per_s_b4096": "Mtuples/s",
    "jit.hashtable.probe_mtuples_per_s_b65536": "Mtuples/s",
    "core.mem_move.schedules_per_s": "1/s",
    "algebra.plan_ms": "ms",
    "jit.compile.compile_plan_ms": "ms",
    "engine.scheduler.submit_ms": "ms",
}

#: work per piece: (full, --quick)
_SIZES = {
    "timeouts": (1000, 40),  # per process, 64 processes
    "handoffs": (3500, 150),  # per pair, 8 pairs
    "fifo": (3000, 120),  # per contender, 8 contenders
    "bw_jobs": (8000, 320),  # total per k
    "ht_keys": (1 << 19, 1 << 14),
    "probe_small": (1 << 17, 1 << 12),  # keys probed at block 256
    "mem_moves": (4000, 160),
    "engine_rounds": (8, 1),  # passes over the 39 (plan, config) pairs
}


@dataclass
class MicroInputs:
    """Seeded inputs and the engine-level fixtures, built in set-up."""

    quick: bool
    build_keys: np.ndarray
    probe_keys: np.ndarray
    #: bytes of each bandwidth job, in submission order per submitter
    job_bytes: np.ndarray
    tables: dict
    plans: dict
    configs: list

    @classmethod
    def generate(cls, seed: int, quick: bool) -> "MicroInputs":
        rng = np.random.default_rng(seed)
        count = _SIZES["ht_keys"][quick]
        build = rng.permutation(count * 4)[:count].astype(np.int64)
        # half the probes hit, half miss — the SSB joins' regime
        probe = rng.integers(0, count * 8, size=count).astype(np.int64)
        return cls(
            quick=quick,
            build_keys=build,
            probe_keys=probe,
            # unequal sizes, so completions interleave and every
            # completion re-runs the water-filling for the others
            job_bytes=rng.uniform(4096.0, 20480.0, size=_SIZES["bw_jobs"][quick]),
            tables=generate_ssb(scale_factor=0.001, seed=seed),
            plans={qid: ssb_query(qid) for qid in SSB_QUERY_IDS},
            configs=[
                ExecutionConfig.cpu_only(24, block_tuples=256),
                ExecutionConfig.hybrid(24, [0, 1], block_tuples=256),
                ExecutionConfig.gpu_only([0, 1], block_tuples=256),
            ],
        )

    def size(self, piece: str) -> int:
        return _SIZES[piece][self.quick]


@dataclass
class MicroResult:
    """One suite drive: host rates plus the simulated (exact) side."""

    rates: dict[str, float] = field(default_factory=dict)
    #: final simulated clock of every DES piece, by piece name
    sim_clocks: dict[str, float] = field(default_factory=dict)
    #: (piece, simulated latency, work bytes) of every bandwidth job
    jobs: list[tuple[str, float, float]] = field(default_factory=list)


def run_suite(inputs: MicroInputs) -> MicroResult:
    result = MicroResult()
    _sim_timeouts(inputs, result)
    _store_handoffs(inputs, result)
    _fifo_ops(inputs, result)
    for k in (1, 8, 32):
        _bandwidth_jobs(inputs, result, k)
    _hashtable(inputs, result)
    _mem_move(inputs, result)
    _engine_pieces(inputs, result)
    return result


def _timed_sim(result: MicroResult, piece: str, sim: Simulator) -> float:
    start = time.perf_counter()
    sim.run()
    host = time.perf_counter() - start
    result.sim_clocks[piece] = sim.now
    return host


def _sim_timeouts(inputs: MicroInputs, result: MicroResult) -> None:
    sim = Simulator()
    per_proc = inputs.size("timeouts")

    def ticker(step: float):
        for _ in range(per_proc):
            yield sim.timeout(step)

    for index in range(64):
        sim.process(ticker(1e-6 * (1 + index % 7)))
    host = _timed_sim(result, "timeouts", sim)
    result.rates["hardware.sim.timeouts_per_s"] = 64 * per_proc / host


def _store_handoffs(inputs: MicroInputs, result: MicroResult) -> None:
    sim = Simulator()
    items = inputs.size("handoffs")

    def producer(store):
        for item in range(items):
            yield store.put(item)
        store.close()

    def consumer(store):
        while True:
            got = store.get()
            yield got
            if got.value is store.END:
                return

    for _ in range(8):
        store = sim.store(capacity=4)
        sim.process(producer(store))
        sim.process(consumer(store))
    host = _timed_sim(result, "handoffs", sim)
    result.rates["hardware.sim.store_handoffs_per_s"] = 8 * items / host


def _fifo_ops(inputs: MicroInputs, result: MicroResult) -> None:
    sim = Simulator()
    resource = FifoResource(sim, name="micro", slots=2)
    rounds = inputs.size("fifo")

    def contender():
        for _ in range(rounds):
            yield resource.acquire()
            yield sim.timeout(1e-6)
            resource.release()

    for _ in range(8):
        sim.process(contender())
    host = _timed_sim(result, "fifo", sim)
    result.rates["hardware.resources.fifo_ops_per_s"] = 8 * rounds / host


def _bandwidth_jobs(inputs: MicroInputs, result: MicroResult, k: int) -> None:
    """``k`` submitters keep ``k`` jobs in flight on one resource."""
    sim = Simulator()
    resource = BandwidthResource(sim, capacity=16e9, name="micro")
    piece = f"bw_k{k}"
    per_submitter = inputs.size("bw_jobs") // k

    def submitter(index: int):
        for job in range(per_submitter):
            work = float(inputs.job_bytes[index * per_submitter + job])
            submitted = sim.now
            yield resource.submit(work, rate_cap=12e9)
            result.jobs.append((piece, sim.now - submitted, work))

    for index in range(k):
        sim.process(submitter(index))
    host = _timed_sim(result, piece, sim)
    result.rates[f"hardware.resources.bw_jobs_per_s_k{k}"] = k * per_submitter / host


def _hashtable(inputs: MicroInputs, result: MicroResult) -> None:
    keys = inputs.build_keys
    table = HashTable(expected=keys.size)
    start = time.perf_counter()
    for offset in range(0, keys.size, 4096):
        table.insert(keys[offset : offset + 4096])
    host = time.perf_counter() - start
    result.rates["jit.hashtable.insert_mtuples_per_s"] = keys.size / host / 1e6
    for block in (256, 4096, 65536):
        # the small block pays per-call overhead on every 256 tuples, so
        # it probes fewer keys to stay near the same host time
        probes = inputs.probe_keys[
            : inputs.size("probe_small") if block == 256 else None
        ]
        start = time.perf_counter()
        for offset in range(0, probes.size, block):
            table.probe(probes[offset : offset + block])
        host = time.perf_counter() - start
        result.rates[f"jit.hashtable.probe_mtuples_per_s_b{block}"] = (
            probes.size / host / 1e6
        )


def _mem_move(inputs: MicroInputs, result: MicroResult) -> None:
    """``MemMove.schedule`` CPU->GPU, wired as tests/test_mem_move_overlap
    does; DMAs drain and credits return between batches of ``depth``."""
    sim = Simulator()
    server = Server.paper_machine(sim)
    blocks = BlockManagerSet(server)
    depth = 4
    cost = CostModel(PAPER_SERVER)
    mem_move = MemMove(sim, server, blocks, cost, prefetch_depth=depth)
    values = np.zeros(1000, dtype=np.int64)
    moves = inputs.size("mem_moves")
    host = 0.0
    for batch in range(moves // depth):
        handles = [
            BlockHandle(Block({"a": values}, f"cpu:{(batch + i) % 2}"))
            for i in range(depth)
        ]
        start = time.perf_counter()
        for i, handle in enumerate(handles):
            mem_move.schedule(handle, f"gpu:{i % 2}")
        host += time.perf_counter() - start
        sim.run()
        for i in range(depth):
            mem_move.release_staged(f"gpu:{i % 2}")
    result.sim_clocks["mem_move"] = sim.now
    result.rates["core.mem_move.schedules_per_s"] = (moves // depth) * depth / host


def _engine_pieces(inputs: MicroInputs, result: MicroResult) -> None:
    engine = Proteus(segment_rows=2048)
    load_ssb(engine, tables=inputs.tables)
    pairs = [(p, c) for p in inputs.plans.values() for c in inputs.configs]
    rounds = inputs.size("engine_rounds")
    start = time.perf_counter()
    for _ in range(rounds):
        placed = [engine.plan(plan, config) for plan, config in pairs]
    host = time.perf_counter() - start
    result.rates["algebra.plan_ms"] = host / (rounds * len(pairs)) * 1e3

    # cold: each round compiles on a pipeline cache that has seen none of
    # these stages; shapes repeated across the 39 plans hit it, as in a
    # drive.  (The un-keyed Executor shares nothing between rounds.)
    host = 0.0
    for _ in range(rounds):
        engine.pipeline_cache.clear()
        start = time.perf_counter()
        for het in placed:
            engine.executor.compile_plan(het)
        host += time.perf_counter() - start
    result.rates["jit.compile.compile_plan_ms"] = host / (rounds * len(placed)) * 1e3

    server = EngineServer(engine=engine, max_concurrent=4)
    start = time.perf_counter()
    for _ in range(rounds):
        for plan, config in pairs:
            server.submit(plan, config)  # queued into an idle server, never run
    host = time.perf_counter() - start
    result.rates["engine.scheduler.submit_ms"] = host / (rounds * len(pairs)) * 1e3
