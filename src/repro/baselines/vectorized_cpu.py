"""DBMS C proxy: a columnar, SIMD, vector-at-a-time CPU engine.

"DBMS C is a columnar database that uses SIMD vector-at-a-time execution,
similar to MonetDB/X100, and supports multi-CPU execution."

The behavioural traits the paper relies on, reproduced here:

* **vector-at-a-time with materialisation** — each operator consumes and
  produces full vectors: selection produces a bitmap + compacted vectors,
  joins materialise gathered payload vectors.  Every intermediate is
  written to and re-read from memory, so the engine streams substantially
  more bytes than a register-pipelined JIT engine ("the operators of
  DBMS C have to either materialize a result vector or a bitmap vector,
  whereas Proteus CPU attempts to operate as much as possible over
  CPU-register-based values") — this is why Proteus CPU wins Q3.1/Q3.2
  and why the gap closes on very selective queries (Q3.3/Q3.4);
* **interpreted operator dispatch** per vector (cheap, amortised; the
  dispatch overhead knob in the tuning);
* **multi-core morsel parallelism** over CPU-resident columnar data; no
  GPU support.

Execution runs on the same simulated server and cost model as Proteus,
with :data:`~repro.hardware.costmodel.DBMS_C_TUNING`.
"""

from __future__ import annotations

import numpy as np

from ..algebra.expressions import bind_strings
from ..algebra.logical import LogicalFilter, LogicalProject, Plan
from ..engine.results import ExecutionProfile, QueryResult
from ..hardware.costmodel import CYCLES, DBMS_C_TUNING, BlockStats
from ..hardware.sim import Store
from ..jit.hashtable import HashTable
from ..jit.pipeline import GroupTable, agg_identity
from .common import (
    StarShape,
    UnsupportedQueryError,
    _BaselineEngine,
    decompose_star,
    fold_block,
)

__all__ = ["DBMSC"]

#: tuples per vector (a few KB per column: the X100 sweet spot)
VECTOR_TUPLES = 4096


class DBMSC(_BaselineEngine):
    """The paper's CPU-based commercial comparison system."""

    name = "DBMS C"
    tuning = DBMS_C_TUNING

    # -- queries -----------------------------------------------------------------

    def query(self, plan: Plan, workers: int = 24,
              vector_tuples: int = VECTOR_TUPLES) -> QueryResult:
        if workers < 1 or workers > len(self.server.cores):
            raise ValueError(
                f"workers must be 1..{len(self.server.cores)}, got {workers}"
            )
        star = decompose_star(plan)
        start = self.sim.now
        profile = ExecutionProfile()
        tables = self._build_dimensions(star, profile)
        partials = self._scan_fact(star, tables, workers, vector_tuples, profile)
        profile.seconds = self.sim.now - start
        return self._collect(plan, star, partials, profile)

    # -- helpers -----------------------------------------------------------------

    def _chain_env(self, node, env: dict[str, np.ndarray],
                   stats: BlockStats) -> dict[str, np.ndarray]:
        """Interpret a filter/project chain vector-at-a-time.

        Every step materialises its outputs (bitmap + compacted vectors),
        charged as extra streamed bytes.
        """
        if isinstance(node, LogicalFilter):
            predicate = bind_strings(node.predicate, self.catalog.dictionary_of)
            mask = predicate.evaluate(env)
            n = len(next(iter(env.values()))) if env else 0
            if np.ndim(mask) == 0:  # a constant predicate: all rows or none
                mask = np.full(n, bool(mask))
            counts = predicate.op_counts()
            stats.cpu_cycles += n * (
                counts.predicates * CYCLES.filter_per_predicate
                + counts.arithmetic * CYCLES.arithmetic_per_op
            )
            stats.bytes_out += n // 8  # the bitmap vector
            out = {name: values[mask] for name, values in env.items()}
            kept = len(next(iter(out.values()))) if out else 0
            width = sum(v.dtype.itemsize for v in env.values())
            stats.bytes_out += kept * width      # compacted vectors written
            stats.bytes_in += kept * width       # ... and read back
            stats.cpu_cycles += kept * CYCLES.pack_per_tuple
            return out
        if isinstance(node, LogicalProject):
            n = len(next(iter(env.values()))) if env else 0
            for alias, expr in node.exprs:
                bound = bind_strings(expr, self.catalog.dictionary_of)
                env[alias] = np.asarray(bound.evaluate(env))
                counts = bound.op_counts()
                stats.cpu_cycles += n * (
                    counts.arithmetic * CYCLES.arithmetic_per_op
                    + counts.predicates * CYCLES.filter_per_predicate
                )
                stats.bytes_out += n * 8
                stats.bytes_in += n * 8
            return env
        raise UnsupportedQueryError(
            f"DBMS C cannot interpret {type(node).__name__} mid-chain"
        )

    # -- build phase ---------------------------------------------------------------

    def _ht_spilled(self, ht: HashTable, scale: float) -> bool:
        """Same cache model as the JIT engines: cache-resident hash
        tables probe for free (no DRAM random traffic)."""
        return ht.nbytes * scale > self.server.spec.cpu_llc_bytes

    def _build_dimensions(self, star: StarShape,
                          profile: ExecutionProfile) -> dict[str, HashTable]:
        """Build one shared hash table per dimension (single-threaded).

        Dimension tables are small; the paper's systems all treat the
        build phase as negligible next to the fact scan.
        """
        tables: dict[str, HashTable] = {}

        def build_proc():
            for index, join in enumerate(star.joins):
                node = join.scan
                table = self.catalog.table(node.table)
                env = {name: table.column(name).values for name in node.columns}
                stats = BlockStats()
                stats.tuples_in = table.num_rows
                stats.bytes_in = sum(env[c].nbytes for c in node.columns)
                for op in join.ops:
                    env = self._chain_env(op, env, stats)
                keys = np.asarray(env[join.build_key], dtype=np.int64)
                # size from the pre-filter cardinality estimate, like the
                # JIT engines (affects cache residency, not correctness)
                ht = HashTable(max(table.num_rows, 16), list(join.payload))
                ht.insert(keys, {p: env[p] for p in join.payload})
                stats.random_accesses += len(keys)
                stats.random_bytes += len(keys) * 16
                stats.cpu_cycles += len(keys) * (
                    CYCLES.hash_compute + CYCLES.hash_build_insert
                )
                tables[f"ht{index}"] = ht
                scale = self.catalog.logical_scale(node.table)
                req = self.cost.cpu_block_work(stats, scale)
                job = self.server.dram_node(0).bandwidth.submit(
                    req.work_bytes, rate_cap=req.rate_cap, label="dbmsc-build"
                )
                yield job

        self.sim.run_process(build_proc(), name="dbmsc-build")
        return tables

    # -- probe phase ----------------------------------------------------------------

    def _scan_fact(self, star: StarShape, tables: dict[str, HashTable],
                   workers: int, vector_tuples: int,
                   profile: ExecutionProfile) -> list:
        fact = self.catalog.table(star.fact.table)
        placement = self.catalog.placement(star.fact.table)
        scale = self.catalog.logical_scale(star.fact.table)
        spilled = {}
        for index, join in enumerate(star.joins):
            dim_scale = self.catalog.logical_scale(join.scan.table)
            spilled[f"ht{index}"] = self._ht_spilled(tables[f"ht{index}"], dim_scale)
        morsels = self.sim.store(name="dbmsc-morsels")
        for segment in placement.segments:
            for begin in range(segment.row_start, segment.row_stop, vector_tuples):
                stop = min(begin + vector_tuples, segment.row_stop)
                morsels.put((begin, stop, segment.node_id))
        morsels.close()

        bound_aggs = [
            (a.alias, a.kind, bind_strings(a.expr, self.catalog.dictionary_of))
            for a in star.aggs
        ]
        fold_cycles = (
            CYCLES.hash_compute + CYCLES.group_lookup
            if star.group_keys
            else CYCLES.aggregate_update
        )
        columns = list(star.fact.columns)
        worker_partials: list = []

        def worker(core_id: int):
            groups = GroupTable(star.aggs)
            scalars = {a.alias: agg_identity(a.kind) for a in star.aggs}
            home = self.server.cores[core_id].socket_id
            while True:
                got = morsels.get()
                yield got
                item = got.value
                if item is Store.END:
                    break
                begin, stop, node_id = item
                stats = BlockStats()
                env = {c: fact.column(c).slice(begin, stop) for c in columns}
                n = stop - begin
                stats.tuples_in = n
                stats.bytes_in = sum(env[c].nbytes for c in columns)
                for op in star.fact_ops:
                    env = self._chain_env(op, env, stats)
                for index, join in enumerate(star.joins):
                    ht = tables[f"ht{index}"]
                    keys = np.asarray(env[join.probe_key], dtype=np.int64)
                    idx = ht.probe(keys)
                    hits = idx >= 0
                    if spilled[f"ht{index}"]:
                        stats.random_accesses += len(keys)
                        stats.random_bytes += len(keys) * (
                            16 + 8 * len(join.payload)
                        )
                    stats.cpu_cycles += len(keys) * (
                        CYCLES.hash_compute + CYCLES.hash_probe
                    )
                    env = {name: values[hits] for name, values in env.items()}
                    rows = idx[hits]
                    for p in join.payload:
                        env[p] = ht.payload[p][rows]
                    kept = int(hits.sum())
                    width = sum(v.dtype.itemsize for v in env.values())
                    # the join materialises the full output vector
                    stats.bytes_out += kept * width
                    stats.bytes_in += kept * width
                kept = len(next(iter(env.values()))) if env else 0
                fold_block(
                    star.group_keys, bound_aggs, env, kept, groups, scalars, stats
                )
                stats.cpu_cycles += kept * fold_cycles
                req = self.cost.cpu_block_work(stats, scale)
                node = self.server.memory_nodes.get(node_id)
                if node is None or node.kind.value != "cpu":
                    node = self.server.dram_node(home)
                job = node.bandwidth.submit(req.work_bytes, rate_cap=req.rate_cap,
                                            label=f"dbmsc-w{core_id}")
                yield job
                agg = profile.device_stats.setdefault("cpu", BlockStats())
                agg.merge(stats)
            if star.group_keys:
                worker_partials.append(groups)
            else:
                worker_partials.append(scalars)

        procs = [
            self.sim.process(worker(core.core_id), name=f"dbmsc-{core.core_id}")
            for core in self.server.cores[:workers]
        ]
        self.sim.run()
        for proc in procs:
            if not proc.ok:
                raise proc.value
        return worker_partials
