"""DBMS G proxy: a JIT GPU engine with star-join-specific execution.

"DBMS G uses JIT code generation, operates over columnar data and
supports multi-GPU execution."  The paper characterises its behaviour in
detail; every reported trait is reproduced:

* **star-join via dense arrays** — "It conceptually treats each dimension
  table as a dense array dimtable[], where the value dimtable[key_i]
  corresponds to the tuple whose key column value is key_i.  DBMS G
  performs the (star) join by iterating over the fact table and fetching
  the corresponding values from the dimension tables/arrays via array
  index lookup";
* **filters after the join** — "DBMS G also opts to apply filtering
  predicates after the completion of the star join...  Thus, DBMS G's
  benefit from selective filtering predicates is minimal" (every fact
  row gathers from every dimension before any predicate drops it);
* **register pressure** — "every thread block that DBMS G triggers on the
  GPU devices allocates double the number of GPU registers than Proteus
  GPU", halving occupancy (``gpu_occupancy=0.5`` in the tuning);
* **operator-at-a-time kernels** with materialised intermediates and one
  launch per operator (``kernel_launch_multiplier``);
* **no string inequalities** — Q2.2 raises
  :class:`~repro.baselines.common.UnsupportedQueryError` when GPU-resident,
  and falls back to a (glacial) single-threaded interpreted CPU path when
  the data is CPU-resident ("for Q2.2, DBMS G reverts to CPU-only
  execution and takes more than 1 hour");
* **pageable out-of-core transfers** — at SF1000 the dataset lives in
  pageable host memory, capping the copy bandwidth well below the pinned
  DMA rate ("limits the achievable transfer bandwidth to less than half
  of the available");
* **cardinality-estimation memory failure** — queries with >= 4 joins and
  high-cardinality grouping need a fact-sized estimation workspace in
  device memory; at SF1000 this does not fit and the query fails
  ("for Q4.3 it fails to perform a cardinality estimation that is
  required to execute the query, due to insufficient GPU memory").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..algebra.expressions import bind_strings
from ..algebra.logical import LogicalFilter, Plan
from ..engine.results import ExecutionProfile, QueryResult
from ..hardware.costmodel import CYCLES, DBMS_G_TUNING, BlockStats
from ..hardware.specs import ServerSpec
from ..jit.pipeline import GroupTable, agg_identity
from ..memory.managers import MemoryManager, OutOfDeviceMemory
from .common import (
    StarShape,
    UnsupportedQueryError,
    _BaselineEngine,
    decompose_star,
    fold_block,
    plan_has_string_inequality,
)

__all__ = ["DBMSG", "GpuMemoryError"]

#: fact tuples per streamed vector
VECTOR_TUPLES = 1 << 20
#: group-cardinality bound above which the estimator needs a fact-sized
#: workspace (bytes per fact row below)
HIGH_CARDINALITY_GROUPS = 100_000
CARDINALITY_WORKSPACE_BYTES_PER_ROW = 4
#: effective on-chip cache per GPU (L2 + texture); dense dimension arrays
#: below this are gathered for free, larger ones pay random HBM traffic
GPU_CACHE_BYTES = 2 << 20


class GpuMemoryError(OutOfDeviceMemory):
    """DBMS G ran out of device memory (the paper's Q4.3\\@SF1000)."""


class _DenseDimension:
    """A dimension as a dense key-indexed array set (+ validity).

    Keys are rebased to ``key - min(key)`` — the paper notes DBMS G
    arranges "the dimension tables [to] resemble sorted, dense arrays at
    join time", so a datekey like 19981231 indexes a ~61k-entry array
    (one slot per day in the key span), not a 20M-entry one.
    """

    def __init__(self, key: np.ndarray, payload: dict[str, np.ndarray],
                 predicate_env: dict[str, np.ndarray]):
        self.base = int(key.min()) if key.size else 0
        size = int(key.max()) - self.base + 1 if key.size else 1
        self.size = size
        rebased = key - self.base
        self.valid = np.zeros(size, dtype=bool)
        self.valid[rebased] = True
        self.columns: dict[str, np.ndarray] = {}
        for name, values in {**payload, **predicate_env}.items():
            dense = np.zeros(size, dtype=values.dtype)
            dense[rebased] = values
            self.columns[name] = dense

    @property
    def nbytes(self) -> int:
        return int(self.valid.nbytes + sum(v.nbytes for v in self.columns.values()))


class DBMSG(_BaselineEngine):
    """The paper's GPU-based commercial comparison system."""

    name = "DBMS G"
    tuning = DBMS_G_TUNING

    def __init__(self, spec: Optional[ServerSpec] = None,
                 segment_rows: int = 1 << 20):
        super().__init__(spec, segment_rows)
        self.memory_managers = {
            gpu.memory.node_id: MemoryManager(gpu.memory) for gpu in self.server.gpus
        }

    # -- queries ------------------------------------------------------------------------

    def query(self, plan: Plan, gpu_ids: tuple[int, ...] = (0, 1),
              gpu_resident: bool = True,
              vector_tuples: int = VECTOR_TUPLES) -> QueryResult:
        """Execute a star plan on the given GPUs.

        ``gpu_resident=True`` is the SF100 setting (fact co-partitioned,
        dimensions pre-broadcast, no PCIe traffic); ``False`` is the
        SF1000 setting (everything streamed from pageable host memory).
        """
        if plan_has_string_inequality(plan, self.catalog.is_string):
            if gpu_resident:
                raise UnsupportedQueryError(
                    "DBMS G cannot evaluate string inequality predicates "
                    "(the paper's Q2.2 failure)"
                )
            return self._cpu_fallback(plan)
        star = decompose_star(plan)
        start = self.sim.now
        profile = ExecutionProfile()
        allocations = []
        try:
            dims = self._build_dense_dimensions(star, gpu_ids, allocations)
            self._cardinality_estimation(star, gpu_ids, allocations)
            partials = self._stream_fact(star, dims, gpu_ids, gpu_resident,
                                         vector_tuples, profile)
        finally:
            for manager, handle in allocations:
                manager.free(handle)
        profile.seconds = self.sim.now - start
        return self._collect(plan, star, partials, profile)

    # -- setup: dense dimensions + cardinality estimation -----------------------------------

    def _build_dense_dimensions(self, star: StarShape, gpu_ids, allocations):
        """Materialise every dimension as dense arrays, replicated per GPU.

        The arrays hold the payload *and* every predicate column: the
        filters run post-join over gathered values.
        """
        dims = []
        for join in star.joins:
            if not all(isinstance(op, LogicalFilter) for op in join.ops):
                raise UnsupportedQueryError(
                    "DBMS G's star join does not support computed dimension "
                    "columns"
                )
            scan_node = join.scan
            # outermost filter first: the order the filter kernels run in
            predicates = [op.predicate for op in reversed(join.ops)]
            table = self.catalog.table(scan_node.table)
            key = np.asarray(table.column(join.build_key).values, dtype=np.int64)
            payload = {p: table.column(p).values for p in join.payload}
            pred_cols = set()
            for predicate in predicates:
                pred_cols |= predicate.columns()
            pred_env = {c: table.column(c).values for c in pred_cols}
            dense = _DenseDimension(key, payload, pred_env)
            scale = self.catalog.logical_scale(scan_node.table)
            for gpu_id in gpu_ids:
                manager = self.memory_managers[f"gpu:{gpu_id}"]
                try:
                    handle = manager.allocate(dense.nbytes * scale,
                                              label=f"dense:{scan_node.table}")
                except OutOfDeviceMemory as err:
                    raise GpuMemoryError(str(err)) from err
                allocations.append((manager, handle))
            dims.append((join, predicates, dense))
        return dims

    def _cardinality_estimation(self, star: StarShape, gpu_ids, allocations):
        """The estimator that fails Q4.3 at SF1000.

        With >= 4 joins and a high-cardinality GROUP BY, DBMS G sizes its
        result hash table from a fact-wide distinct-count pass that needs
        a workspace proportional to the (logical) fact row count.
        """
        if len(star.joins) < 4 or not star.group_keys:
            return
        bound = 1
        for key in star.group_keys:
            column = self.catalog.column(key)
            distinct = len(np.unique(column.values)) if column is not None else 64
            bound *= distinct
        if bound < HIGH_CARDINALITY_GROUPS:
            return
        fact = self.catalog.table(star.fact.table)
        logical_rows = fact.num_rows * self.catalog.logical_scale(star.fact.table)
        workspace = logical_rows * CARDINALITY_WORKSPACE_BYTES_PER_ROW / len(gpu_ids)
        for gpu_id in gpu_ids:
            manager = self.memory_managers[f"gpu:{gpu_id}"]
            try:
                handle = manager.allocate(workspace, label="cardinality-estimation")
            except OutOfDeviceMemory as err:
                raise GpuMemoryError(
                    f"cardinality estimation workspace ({workspace:.2e} B) does "
                    f"not fit on gpu:{gpu_id}: {err}"
                ) from err
            allocations.append((manager, handle))

    # -- the streamed star join ------------------------------------------------------------

    def _stream_fact(self, star: StarShape, dims, gpu_ids, gpu_resident,
                     vector_tuples, profile: ExecutionProfile):
        fact = self.catalog.table(star.fact.table)
        scale = self.catalog.logical_scale(star.fact.table)
        columns = list(star.fact.columns)
        fact_predicates = []
        for op in star.fact_ops:
            if isinstance(op, LogicalFilter):
                fact_predicates.append(op.predicate)
            else:
                raise UnsupportedQueryError(
                    "DBMS G applies only filters over the fact table"
                )
        # Fact vectors co-partitioned across the GPUs.
        shards: dict[int, list[tuple[int, int]]] = {g: [] for g in gpu_ids}
        index = 0
        for begin in range(0, fact.num_rows, vector_tuples):
            stop = min(begin + vector_tuples, fact.num_rows)
            shards[gpu_ids[index % len(gpu_ids)]].append((begin, stop))
            index += 1

        partials: list = []
        procs = []
        for gpu_id in gpu_ids:
            procs.append(
                self.sim.process(
                    self._gpu_proc(gpu_id, shards[gpu_id], star, dims, fact,
                                   columns, fact_predicates, scale,
                                   gpu_resident, partials, profile),
                    name=f"dbmsg-gpu{gpu_id}",
                )
            )
        self.sim.run()
        for proc in procs:
            if not proc.ok:
                raise proc.value
        return partials

    def _gpu_proc(self, gpu_id, ranges, star, dims, fact, columns,
                  fact_predicates, scale, gpu_resident, partials,
                  profile: ExecutionProfile):
        gpu = self.server.gpus[gpu_id]
        bound_aggs = [
            (a.alias, a.kind, bind_strings(a.expr, self.catalog.dictionary_of))
            for a in star.aggs
        ]
        fold_ops = (
            CYCLES.gpu_hash_compute + CYCLES.gpu_group_lookup
            if star.group_keys
            else CYCLES.gpu_aggregate_update
        )
        groups = GroupTable(star.aggs)
        scalars = {a.alias: agg_identity(a.kind) for a in star.aggs}
        host = self.server.dram_node(gpu.socket_id)
        for begin, stop in ranges:
            env = {c: fact.column(c).slice(begin, stop) for c in columns}
            n = stop - begin
            vector_bytes = sum(env[c].nbytes for c in columns)
            if not gpu_resident:
                # Pageable host memory: the copy cannot use pinned DMA.
                plan = self.cost.transfer_plan(vector_bytes, scale=scale)
                jobs = [
                    gpu.link.bandwidth.submit(plan.nbytes,
                                              rate_cap=plan.link_rate_cap,
                                              label="dbmsg-copy"),
                    host.bandwidth.submit(plan.nbytes,
                                          rate_cap=plan.link_rate_cap,
                                          label="dbmsg-copy-host"),
                ]
                yield self.sim.timeout(plan.setup_seconds)
                yield self.sim.all_of(jobs)
            stats = BlockStats()
            stats.tuples_in = n
            stats.bytes_in = vector_bytes
            kernels = 0
            # --- star join kernels: one gather per dimension, pre-filter ---
            # Operator-at-a-time execution: each kernel writes the FULL
            # intermediate (fact columns + everything gathered so far) and
            # the next kernel reads it back — the materialisation the paper
            # blames for DBMS G's multi-join queries degrading to DBMS C
            # levels ("result materialization - even with vectors - is
            # wasteful in terms of memory bandwidth").
            width = vector_bytes // max(n, 1)
            mask = np.ones(n, dtype=bool)
            scale_of = self.catalog.logical_scale
            for join, predicates, dense in dims:
                keys = np.asarray(env[join.probe_key], dtype=np.int64) - dense.base
                in_range = (keys >= 0) & (keys < dense.size)
                keys_clipped = np.where(in_range, keys, 0)
                valid = in_range & dense.valid[keys_clipped]
                mask &= valid
                gathered_width = 0
                for name, dense_col in dense.columns.items():
                    env[name] = dense_col[keys_clipped]
                    gathered_width += dense_col.dtype.itemsize
                # Small dimensions' dense arrays live in on-chip cache; the
                # gathers only cost device memory traffic once the array
                # spills (customer/part at SF100+, everything at SF1000).
                dense_logical = dense.nbytes * scale_of(join.scan.table)
                if dense_logical > GPU_CACHE_BYTES:
                    stats.random_accesses += n
                    stats.random_bytes += n * (8 + gathered_width)
                stats.gpu_ops += n * CYCLES.gpu_hash_compute
                width += gathered_width
                stats.bytes_out += n * width  # materialised intermediate
                stats.bytes_in += n * width   # re-read by the next kernel
                kernels += 1
            # --- filter kernels (after the join; selectivity helps little) ---
            for predicate in fact_predicates + [
                p for _, preds, _ in dims for p in preds
            ]:
                bound = bind_strings(predicate, self.catalog.dictionary_of)
                result = bound.evaluate(env)
                if np.ndim(result) == 0:  # a constant predicate: all rows or none
                    result = np.full(n, bool(result))
                mask &= result
                counts = bound.op_counts()
                stats.gpu_ops += n * (
                    counts.predicates * CYCLES.gpu_filter_per_predicate
                    + counts.arithmetic * CYCLES.gpu_arithmetic_per_op
                )
                stats.bytes_out += n // 8
                kernels += 1
            env = {name: values[mask] for name, values in env.items()}
            kept = int(mask.sum())
            # --- aggregation kernel ---
            fold_block(star.group_keys, bound_aggs, env, kept, groups, scalars, stats)
            stats.gpu_ops += kept * fold_ops
            kernels += 1
            req = self.cost.gpu_block_work(stats, scale)
            grant = gpu.compute.acquire()
            yield grant
            try:
                yield self.sim.timeout(self.cost.kernel_launch_seconds * kernels)
                job = gpu.memory.bandwidth.submit(
                    req.work_bytes, rate_cap=req.rate_cap, label="dbmsg-kernel"
                )
                yield job
            finally:
                gpu.compute.release()
            agg = profile.device_stats.setdefault("gpu", BlockStats())
            agg.merge(stats)
            profile.kernels_launched += kernels
        partials.append(groups.groups() if star.group_keys else scalars)

    # -- the Q2.2@SF1000 CPU fallback ---------------------------------------------------------

    def _cpu_fallback(self, plan: Plan) -> QueryResult:
        """Single-threaded interpreted CPU execution (over an hour at
        SF1000 — the paper's reported behaviour for Q2.2)."""
        from ..engine.reference import ReferenceExecutor

        star = decompose_star(plan)
        fact = self.catalog.table(star.fact.table)
        start = self.sim.now
        rows = ReferenceExecutor(self.catalog.tables).execute(plan)
        # Interpreted row-at-a-time execution: ~300 cycles/tuple/column
        # (virtual dispatch per value; this is what makes the paper's
        # Q2.2 fallback take "more than 1 hour" at SF1000).
        scale = self.catalog.logical_scale(star.fact.table)
        stats = BlockStats(
            tuples_in=fact.num_rows,
            bytes_in=fact.column_bytes(star.fact.columns),
            cpu_cycles=fact.num_rows * 300.0 * len(star.fact.columns),
        )
        req = self.cost.cpu_block_work(stats, scale)

        def fallback():
            job = self.server.dram_node(0).bandwidth.submit(
                req.work_bytes, rate_cap=req.rate_cap, label="dbmsg-cpu-fallback"
            )
            yield job

        self.sim.run_process(fallback(), name="dbmsg-fallback")
        profile = ExecutionProfile(seconds=self.sim.now - start)
        columns = (list(star.group_keys) + [a.alias for a in star.aggs]) \
            if star.group_keys or star.aggs else []
        return QueryResult(columns=columns, rows=rows, profile=profile,
                           scalar=None)
