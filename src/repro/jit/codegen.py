"""JIT code generation: fusing a stage's operators into one pipeline.

This is the reproduction of the paper's Section 4.1.  Each stage's
relational operators are fused, produce()/consume() style, into a single
straight-line function body that processes one input block; the body is
rendered as Python/NumPy source, specialised by the stage's device
provider, "compiled to machine code" (:func:`compile`) and "loaded into
the running instance" (:func:`exec`).

Two fidelity points:

* **one blueprint, two backends** — the codegen body below is written once
  per operator; every device-dependent construct (worker-scoped atomics,
  neighbourhood reductions, thread geometry, kernel headers) is delegated
  to the provider, so the CPU and GPU render of the same stage genuinely
  differ (compare the paper's Figure 3);
* **instrumentation** — generated code accumulates a
  :class:`~repro.hardware.costmodel.BlockStats` as it runs (tuples, bytes
  streamed, random accesses, cycle/op estimates).  The executor feeds the
  stats to the cost model, which converts them into simulated time.

Columns are materialised late (Abadi et al., ICDE 2007), mirroring how a
real JIT engine keeps only live attributes in registers: each row-wise
pass happens once.  A filter or probe yields only positions, one
``nonzero()`` (``_nz``), and the pipeline composes them into one
selection ``_sel``: row positions into the unpacked block.  At each
selection only the arrays that already hold one value per current row
and are still live are compacted, one ``take(_nz)`` each and only when
some row was dropped: computed columns, columns already gathered, the
probes' pending row ids, and ``_sel`` itself.  An unpacked column is
gathered with one ``take(_sel)`` when an operator first reads it, and a
probe's payload stays that probe's row-id array until it is read
(:class:`_Rows` is the bookkeeping).  Join keys and group keys are
passed to the join table and :func:`~repro.jit.pipeline.group_rows` as
stored; a group sink sums with ``np.bincount`` over the group inverse
and merges by slot.  Statistics are counted from ``_n`` as before, so
no simulated second depends on how the rows were carried.  Generated
source length is the pipeline cache's size proxy and every cold drive
compiles it, so the emitted shape is kept short.

The compiler is **pure**: a stage in, a fresh
:class:`~repro.jit.pipeline.CompiledPipeline` out, no cache and no
pricing.  The compile-through-the-cache protocol (signature -> lookup ->
compile -> first-writer-wins publish, cost-priced)
lives in one place, :meth:`Executor.begin_compilation
<repro.engine.executor.Executor.begin_compilation>` /
:meth:`PlanCompilation.finish
<repro.engine.executor.PlanCompilation.finish>`.
"""

from __future__ import annotations


from ..algebra.expressions import Expression, OpCounts
from ..algebra.physical import (
    OpBuildSink,
    OpFilter,
    OpGroupAggSink,
    OpHashPackSink,
    OpPackSink,
    OpProbe,
    OpProject,
    OpReduceSink,
    OpUnpack,
    PipelineOp,
    Stage,
)
from ..hardware.costmodel import CYCLES
# _ident/_var are shared with the cache: stage signatures render
# expression sources with the exact same variable naming codegen emits.
from .cache import _ident, _var
from .pipeline import CompiledPipeline
from .provider import DeviceProvider, provider_for

__all__ = ["PipelineCompiler", "CodegenError"]


class CodegenError(RuntimeError):
    """Code generation failed for a stage."""


def _expr_cycles(counts: OpCounts) -> float:
    return (
        counts.predicates * CYCLES.filter_per_predicate
        + counts.arithmetic * CYCLES.arithmetic_per_op
        + counts.string_compares * CYCLES.string_compare
    )


def _expr_gpu_ops(counts: OpCounts) -> float:
    return (
        counts.predicates * CYCLES.gpu_filter_per_predicate
        + counts.arithmetic * CYCLES.gpu_arithmetic_per_op
        + counts.string_compares * CYCLES.gpu_string_compare
    )


def _requires(op: PipelineOp) -> set[str]:
    if isinstance(op, OpFilter):
        return op.predicate.columns()
    if isinstance(op, OpProject):
        return set().union(*(e.columns() for _, e in op.exprs)) if op.exprs else set()
    if isinstance(op, OpProbe):
        return {op.probe_key}
    if isinstance(op, OpBuildSink):
        return {op.build_key} | set(op.payload)
    if isinstance(op, OpReduceSink):
        out: set[str] = set()
        for agg in op.aggs:
            if agg.kind != "count":
                out |= agg.expr.columns()
        return out
    if isinstance(op, OpGroupAggSink):
        out = set(op.keys)
        for agg in op.aggs:
            if agg.kind != "count":
                out |= agg.expr.columns()
        return out
    if isinstance(op, (OpPackSink, OpHashPackSink)):
        cols = set(op.columns)
        if isinstance(op, OpHashPackSink):
            cols.add(op.key)
        return cols
    if isinstance(op, OpUnpack):
        return set()
    raise CodegenError(f"unknown op {type(op).__name__}")


def _provides(op: PipelineOp) -> set[str]:
    if isinstance(op, OpUnpack):
        return set(op.columns)
    if isinstance(op, OpProject):
        return {alias for alias, _ in op.exprs}
    if isinstance(op, OpProbe):
        return set(op.payload)
    return set()


class _Emitter:
    """Indented source accumulator."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.indent + line).rstrip())

    def emit_all(self, lines: list[str]) -> None:
        for line in lines:
            self.emit(line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class PipelineCompiler:
    """Compiles stages into :class:`CompiledPipeline` objects.

    ``widths`` maps column names to their byte width for the stats
    instrumentation; unknown (derived) columns default to 8 bytes.
    Compiled functions are stateless (per-query state is created via
    ``new_state``), which is what makes them safe to cache and share.
    """

    def __init__(self, widths: dict[str, int] | None = None):
        self.widths = dict(widths or {})

    def width(self, name: str) -> int:
        return self.widths.get(name, 8)

    # -- public ------------------------------------------------------------

    def compile_stage(self, stage: Stage) -> CompiledPipeline:
        """Codegen + compile + load one non-source stage."""
        if stage.is_source:
            raise CodegenError(
                f"stage {stage.name!r} is a segmenter source; it has no "
                "generated pipeline (the segmenter is a runtime operator)"
            )
        provider = provider_for(stage.device)
        fn_name = f"pipeline_{_ident(stage.name)}"
        source = self._generate(stage, provider, fn_name)
        source = provider.optimize(source)
        code = provider.convert_to_machine_code(source, stage.name)
        fn = provider.load_machine_code(code, fn_name)

        sink = stage.sink
        return CompiledPipeline(
            name=stage.name,
            device=stage.device,
            source=source,
            fn=fn,
            reduce_aggs=list(sink.aggs) if isinstance(sink, OpReduceSink) else [],
            group_aggs=list(sink.aggs) if isinstance(sink, OpGroupAggSink) else None,
            hash_pack_partitions=(
                sink.partitions if isinstance(sink, OpHashPackSink) else None
            ),
        )

    # -- body generation ----------------------------------------------------

    def _generate(self, stage: Stage, provider: DeviceProvider, fn_name: str) -> str:
        ops = stage.ops
        live_after = self._liveness(ops)

        out = _Emitter()
        out.emit_all(provider.emit_kernel_header(stage.name))
        out.emit(f"def {fn_name}(state, cols, stats):")
        out.indent += 1
        out.emit("_emitted = []")
        out.emit(f"_threads = {provider.threads_in_worker()}")
        out.emit(f"_tid = {provider.thread_id_in_worker()}")
        rows = _Rows()
        for index, op in enumerate(ops):
            out.emit()
            self._emit_op(out, op, provider, rows, live_after[index])
        out.emit()
        out.emit("return _emitted")
        return out.source()

    def _liveness(self, ops: list[PipelineOp]) -> list[set[str]]:
        live_after: list[set[str]] = [set() for _ in ops]
        need: set[str] = set()
        for index in range(len(ops) - 1, -1, -1):
            live_after[index] = set(need)
            need = (need - _provides(ops[index])) | _requires(ops[index])
        return live_after

    # -- per-op emitters --------------------------------------------------------

    def _emit_op(
        self,
        out: _Emitter,
        op: PipelineOp,
        provider: DeviceProvider,
        rows: "_Rows",
        live_after: set[str],
    ) -> None:
        if isinstance(op, OpUnpack):
            self._emit_unpack(out, op, rows)
        elif isinstance(op, OpFilter):
            self._emit_filter(out, op, rows, live_after)
        elif isinstance(op, OpProject):
            self._emit_project(out, op, rows, live_after)
        elif isinstance(op, OpProbe):
            self._emit_probe(out, op, rows, live_after)
        elif isinstance(op, OpBuildSink):
            self._emit_build(out, op, rows)
        elif isinstance(op, OpReduceSink):
            self._emit_reduce(out, op, rows, provider)
        elif isinstance(op, OpGroupAggSink):
            self._emit_group_agg(out, op, rows)
        elif isinstance(op, OpPackSink):
            self._emit_pack(out, op, rows)
        elif isinstance(op, OpHashPackSink):
            self._emit_hash_pack(out, op, rows)
        else:
            raise CodegenError(f"cannot generate code for {type(op).__name__}")

    @staticmethod
    def _src(expr: Expression) -> str:
        return expr.source(_var)

    @staticmethod
    def _gather(out: _Emitter, rows: "_Rows", op: PipelineOp) -> None:
        """Materialise the columns ``op`` reads at the current rows: an
        unpacked column with one ``take(_sel)``, a probe payload column
        with one ``take`` of its probe's pending row ids.  Each emitter
        calls it right after its comment line."""
        for name in sorted(_requires(op)):
            var = _var(name)
            if name in rows.pending:
                ht, idx = rows.pending.pop(name)
                out.emit(f"{var} = {ht}.payload[{name!r}].take({idx})")
            elif name in rows.unpacked and rows.selected:
                rows.unpacked.discard(name)
                out.emit(f"{var} = {var}.take(_sel)")

    @staticmethod
    def _select(out: _Emitter, positions: str, rows: "_Rows",
                live_after: set[str]) -> None:
        """Narrow the current rows to ``positions`` (``_nz``), an index
        array of the surviving rows.

        Only the arrays that already exist at the current rows and are
        still needed are compacted, one ``take`` each and only when some
        row was dropped: computed or gathered columns, pending probe row
        ids, and ``_sel`` itself — the surviving rows' positions in the
        unpacked block — while an unpacked column is still to be read.
        The first selection that leaves one to read starts ``_sel``.
        """
        rows.active &= live_after
        rows.unpacked &= live_after
        rows.pending = {n: p for n, p in rows.pending.items() if n in live_after}
        arrays = [
            _var(name)
            for name in sorted(rows.active - rows.unpacked - rows.pending.keys())
        ]
        arrays += sorted({idx for _, idx in rows.pending.values()})
        start = bool(rows.unpacked) and not rows.selected
        if rows.unpacked and rows.selected:
            arrays.append("_sel")
        out.emit(f"{'_sel = ' if start else ''}_nz = {positions}")
        if arrays:
            out.emit("if _nz.shape[0] != _n:")
            out.indent += 1
            for array in arrays:
                out.emit(f"{array} = {array}.take(_nz)")
            out.indent -= 1
        out.emit("_n = _nz.shape[0]")
        rows.selected |= start

    def _emit_unpack(self, out, op: OpUnpack, rows: "_Rows") -> None:
        out.emit("# unpack: block -> tuple stream (stride #threadsInWorker)")
        for name in op.columns:
            out.emit(f"{_var(name)} = cols[{name!r}]")
        first = _var(op.columns[0])
        out.emit(f"_n = {first}.shape[0]")
        width = sum(self.width(c) for c in op.columns)
        out.emit("stats.tuples_in += _n")
        out.emit(f"stats.bytes_in += _n * {width}")
        out.emit(f"stats.cpu_cycles += _n * {CYCLES.unpack_per_tuple!r}")
        out.emit(f"stats.gpu_ops += _n * {CYCLES.gpu_unpack_per_tuple!r}")
        rows.active |= set(op.columns)
        rows.unpacked |= set(op.columns)

    def _emit_filter(self, out, op: OpFilter, rows: "_Rows", live_after) -> None:
        counts = op.predicate.op_counts()
        out.emit("# filter")
        self._gather(out, rows, op)
        out.emit(f"stats.cpu_cycles += _n * {_expr_cycles(counts)!r}")
        out.emit(f"stats.gpu_ops += _n * {_expr_gpu_ops(counts)!r}")
        if op.predicate.columns():
            self._select(out, f"({self._src(op.predicate)}).nonzero()[0]", rows,
                         live_after)
        elif op.predicate.evaluate({}):
            rows.active &= live_after  # constant true: every row survives
        else:
            self._select(out, "np.zeros(0, dtype=np.intp)", rows, live_after)

    def _emit_project(self, out, op: OpProject, rows: "_Rows", live_after) -> None:
        out.emit("# project (extend tuple with computed attributes)")
        self._gather(out, rows, op)
        total_cycles = 0.0
        total_gpu = 0.0
        for alias, expr in op.exprs:
            out.emit(f"{_var(alias)} = {self._src(expr)}")
            counts = expr.op_counts()
            total_cycles += _expr_cycles(counts)
            total_gpu += _expr_gpu_ops(counts)
            rows.active.add(alias)
            rows.unpacked.discard(alias)
            rows.pending.pop(alias, None)
        out.emit(f"stats.cpu_cycles += _n * {total_cycles!r}")
        out.emit(f"stats.gpu_ops += _n * {total_gpu!r}")
        rows.active &= live_after

    def _emit_probe(self, out, op: OpProbe, rows: "_Rows", live_after) -> None:
        ht = f"_ht_{_ident(op.ht_id)}"
        idx = f"_idx_{_ident(op.ht_id)}"
        row_width = 16 + sum(self.width(p) for p in op.payload)
        out.emit(f"# hash-join probe against {op.ht_id}")
        self._gather(out, rows, op)
        out.emit(f"{ht} = state.hash_table({op.ht_id!r})")
        out.emit(f"{idx} = {ht}.probe({_var(op.probe_key)})")
        out.emit(f"if state.ht_spilled({op.ht_id!r}):")
        out.indent += 1
        out.emit("# table exceeds the on-chip cache: probes hit memory")
        out.emit("stats.random_accesses += _n")
        out.emit(f"stats.random_bytes += _n * {row_width}")
        out.indent -= 1
        out.emit(
            f"stats.cpu_cycles += _n * {CYCLES.hash_compute + CYCLES.hash_probe!r}"
        )
        out.emit(
            f"stats.gpu_ops += _n * {CYCLES.gpu_hash_compute + CYCLES.gpu_hash_probe!r}"
        )
        for name in op.payload:
            rows.active.add(name)
            rows.unpacked.discard(name)
            rows.pending[name] = (ht, idx)
        self._select(out, f"({idx} >= 0).nonzero()[0]", rows, live_after)

    def _emit_build(self, out, op: OpBuildSink, rows: "_Rows") -> None:
        ht = f"_ht_{_ident(op.ht_id)}"
        row_width = 16 + sum(self.width(p) for p in op.payload)
        out.emit(f"# hash-join build into {op.ht_id} (worker-scoped table)")
        self._gather(out, rows, op)
        out.emit("if _n:")
        out.indent += 1
        out.emit(f"{ht} = state.hash_table({op.ht_id!r})")
        payload = ", ".join(f"{p!r}: {_var(p)}" for p in op.payload)
        out.emit(f"{ht}.insert({_var(op.build_key)}, {{{payload}}})")
        out.emit("stats.random_accesses += _n")
        out.emit(f"stats.random_bytes += _n * {row_width}")
        out.emit(f"stats.cpu_cycles += _n * {CYCLES.hash_compute + CYCLES.hash_build_insert!r}")
        out.emit(f"stats.gpu_ops += _n * {CYCLES.gpu_hash_compute + CYCLES.gpu_hash_build_insert!r}")
        out.indent -= 1

    def _emit_reduce(self, out, op: OpReduceSink, rows: "_Rows",
                     provider: DeviceProvider) -> None:
        out.emit("# ungrouped (partial) reduction into worker accumulators")
        self._gather(out, rows, op)
        out.emit("if _n:")
        out.indent += 1
        cycles = 0.0
        gpu = 0.0
        for agg in op.aggs:
            if agg.kind == "count":
                out.emit_all(provider.emit_accumulate(agg.alias, "_n", "sum"))
            else:
                value = self._src(agg.expr)
                reducer = {"sum": "np.sum", "min": "np.min", "max": "np.max"}[agg.kind]
                out.emit_all(provider.emit_accumulate(
                    agg.alias, f"float({reducer}({value}))", agg.kind))
                counts = agg.expr.op_counts()
                cycles += _expr_cycles(counts)
                gpu += _expr_gpu_ops(counts)
            cycles += CYCLES.aggregate_update
            gpu += CYCLES.gpu_aggregate_update
        out.emit(f"stats.cpu_cycles += _n * {cycles!r}")
        out.emit(f"stats.gpu_ops += _n * {gpu!r}")
        out.indent -= 1

    def _emit_group_agg(self, out, op: OpGroupAggSink, rows: "_Rows") -> None:
        out.emit("# grouped (partial) aggregation into the worker's hash table")
        self._gather(out, rows, op)
        out.emit("if _n:")
        out.indent += 1
        keys = ", ".join(_var(k) for k in op.keys)
        out.emit(f"_uniq, _inv = state.group_rows({keys})")
        cycles = CYCLES.hash_compute + CYCLES.group_lookup
        gpu = CYCLES.gpu_hash_compute + CYCLES.gpu_group_lookup
        parts = []
        row_width = 8 * len(op.keys)
        for index, agg in enumerate(op.aggs):
            # every group has a row, so a bincount is as long as the groups
            var = f"_agg{index}"
            if agg.kind == "count":
                out.emit(f"{var} = np.bincount(_inv)")
            else:
                value = self._src(agg.expr)
                if agg.kind == "sum":
                    out.emit(f"{var} = np.bincount(_inv, {value})")
                else:
                    identity = "np.inf" if agg.kind == "min" else "-np.inf"
                    out.emit(f"{var} = np.full(_uniq[0].shape[0], {identity})")
                    ufunc = "minimum" if agg.kind == "min" else "maximum"
                    out.emit(f"np.{ufunc}.at({var}, _inv, ({value}).astype(np.float64))")
                counts = agg.expr.op_counts()
                cycles += _expr_cycles(counts)
                gpu += _expr_gpu_ops(counts)
            cycles += CYCLES.aggregate_update
            gpu += CYCLES.gpu_aggregate_update
            row_width += 8
            parts.append(var)
        out.emit("# worker-scoped merge (atomic per group on the GPU)")
        out.emit(f"if state.group_update(_uniq, [{', '.join(parts)}]) > 4096:")
        out.indent += 1
        out.emit("# large group table: updates spill the cache")
        out.emit("stats.random_accesses += _n")
        out.emit(f"stats.random_bytes += _n * {row_width}")
        out.indent -= 1
        out.emit(f"stats.cpu_cycles += _n * {cycles!r}")
        out.emit(f"stats.gpu_ops += _n * {gpu!r}")
        out.indent -= 1

    def _emit_pack(self, out, op: OpPackSink, rows: "_Rows") -> None:
        width = sum(self.width(c) for c in op.columns)
        out.emit("# pack: tuple stream -> blocks, flush when full")
        self._gather(out, rows, op)
        out.emit("if _n:")
        out.indent += 1
        arrays = ", ".join(f"{c!r}: {_var(c)}" for c in op.columns)
        out.emit(f"_emitted.extend(state.packer.push({{{arrays}}}))")
        out.emit(f"stats.bytes_out += _n * {width}")
        out.emit(f"stats.cpu_cycles += _n * {CYCLES.pack_per_tuple!r}")
        out.emit(f"stats.gpu_ops += _n * {CYCLES.gpu_pack_per_tuple!r}")
        out.indent -= 1

    def _emit_hash_pack(self, out, op: OpHashPackSink, rows: "_Rows") -> None:
        width = sum(self.width(c) for c in op.columns)
        out.emit("# hash-pack: one open block per hash value (router routes on it)")
        self._gather(out, rows, op)
        out.emit("if _n:")
        out.indent += 1
        out.emit(f"_hpart = {_var(op.key)} % {op.partitions}")
        out.emit("for _p in np.unique(_hpart):")
        out.indent += 1
        out.emit("_pm = _hpart == _p")
        arrays = ", ".join(f"{c!r}: {_var(c)}[_pm]" for c in op.columns)
        out.emit(f"_emitted.extend(state.hash_packer.push(int(_p), {{{arrays}}}))")
        out.indent -= 1
        out.emit(f"stats.bytes_out += _n * {width}")
        out.emit(
            f"stats.cpu_cycles += _n * {CYCLES.pack_per_tuple + CYCLES.hash_compute!r}"
        )
        out.emit(
            f"stats.gpu_ops += _n * {CYCLES.gpu_pack_per_tuple + CYCLES.gpu_hash_compute!r}"
        )
        out.indent -= 1


class _Rows:
    """Codegen's view of the arrays a pipeline holds (late materialisation).

    ``active`` names every column still available.  Of these, an
    ``unpacked`` column is still the block's own array, read at the
    current rows through ``_sel`` once a selection ran (``selected``);
    a ``pending`` column is a probe payload column, ``name -> (table,
    row ids)``, gathered when first read; every other column already
    holds one value per current row.
    """

    def __init__(self):
        self.active: set[str] = set()
        self.unpacked: set[str] = set()
        self.pending: dict[str, tuple[str, str]] = {}
        self.selected = False
