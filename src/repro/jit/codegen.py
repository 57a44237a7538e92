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

Liveness analysis prunes dead columns at every selection point, mirroring
how a real JIT engine keeps only live attributes in registers.  Survivors
are compacted by position: a filter or probe turns its predicate into one
index array of surviving rows (one ``nonzero()``), and each live column is
gathered with one ``take`` — only when some row was dropped.

The compiler is **pure**: a stage in, a fresh
:class:`~repro.jit.pipeline.CompiledPipeline` out, no cache and no
pricing.  The compile-through-the-cache protocol (signature -> lookup ->
compile -> first-writer-wins publish, cost-priced and tenant-attributed)
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
            group_aggs=list(sink.aggs) if isinstance(sink, OpGroupAggSink) else [],
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
        active: set[str] = set()
        for index, op in enumerate(ops):
            out.emit()
            self._emit_op(out, op, provider, active, live_after[index])
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
        active: set[str],
        live_after: set[str],
    ) -> None:
        if isinstance(op, OpUnpack):
            self._emit_unpack(out, op, active, live_after)
        elif isinstance(op, OpFilter):
            self._emit_filter(out, op, active, live_after)
        elif isinstance(op, OpProject):
            self._emit_project(out, op, active, live_after)
        elif isinstance(op, OpProbe):
            self._emit_probe(out, op, active, live_after)
        elif isinstance(op, OpBuildSink):
            self._emit_build(out, op, active)
        elif isinstance(op, OpReduceSink):
            self._emit_reduce(out, op, provider, active)
        elif isinstance(op, OpGroupAggSink):
            self._emit_group_agg(out, op, provider, active)
        elif isinstance(op, OpPackSink):
            self._emit_pack(out, op, active)
        elif isinstance(op, OpHashPackSink):
            self._emit_hash_pack(out, op, active)
        else:
            raise CodegenError(f"cannot generate code for {type(op).__name__}")

    @staticmethod
    def _src(expr: Expression) -> str:
        return expr.source(_var)

    def _compress(self, out: _Emitter, selection: str, active: set[str],
                  live_after: set[str], also: tuple[str, ...] = ()) -> None:
        """Compact every column still live downstream to the selected rows.

        ``selection`` is the source of an index array of surviving row
        positions: one ``take`` per live column (and per array in
        ``also``) gathers them, and only when some row was dropped — a
        selection that keeps every row copies nothing.
        """
        out.emit(f"_sel = {selection}")
        arrays = [_var(name) for name in sorted(active & live_after)] + list(also)
        if arrays:
            out.emit("if _sel.shape[0] != _n:")
            out.indent += 1
            for array in arrays:
                out.emit(f"{array} = {array}.take(_sel)")
            out.indent -= 1
        out.emit("_n = _sel.shape[0]")
        active &= live_after

    def _emit_unpack(self, out, op: OpUnpack, active: set[str], live_after) -> None:
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
        active |= set(op.columns)

    def _emit_filter(self, out, op: OpFilter, active: set[str], live_after) -> None:
        counts = op.predicate.op_counts()
        out.emit("# filter")
        if op.predicate.columns():
            out.emit(f"_mask = {self._src(op.predicate)}")
            selection = "_mask.nonzero()[0]"
        elif op.predicate.evaluate({}):
            selection = None  # constant true: every row survives
        else:
            selection = "np.zeros(0, dtype=np.intp)"  # constant false: none
        out.emit(f"stats.cpu_cycles += _n * {_expr_cycles(counts)!r}")
        out.emit(f"stats.gpu_ops += _n * {_expr_gpu_ops(counts)!r}")
        if selection is None:
            active &= live_after
        else:
            self._compress(out, selection, active, live_after)

    def _emit_project(self, out, op: OpProject, active: set[str], live_after) -> None:
        out.emit("# project (extend tuple with computed attributes)")
        total_cycles = 0.0
        total_gpu = 0.0
        for alias, expr in op.exprs:
            out.emit(f"{_var(alias)} = {self._src(expr)}")
            counts = expr.op_counts()
            total_cycles += _expr_cycles(counts)
            total_gpu += _expr_gpu_ops(counts)
            active.add(alias)
        out.emit(f"stats.cpu_cycles += _n * {total_cycles!r}")
        out.emit(f"stats.gpu_ops += _n * {total_gpu!r}")
        for name in sorted(active - live_after):
            active.discard(name)

    def _emit_probe(self, out, op: OpProbe, active: set[str], live_after) -> None:
        ht = f"_ht_{_ident(op.ht_id)}"
        idx = f"_idx_{_ident(op.ht_id)}"
        row_width = 16 + sum(self.width(p) for p in op.payload)
        out.emit(f"# hash-join probe against {op.ht_id}")
        out.emit(f"{ht} = state.hash_table({op.ht_id!r})")
        out.emit(f"{idx} = {ht}.probe({_var(op.probe_key)}.astype(np.int64))")
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
        self._compress(out, f"({idx} >= 0).nonzero()[0]", active, live_after,
                       also=(idx,))
        for name in op.payload:
            if name in live_after:
                out.emit(f"{_var(name)} = {ht}.payload[{name!r}].take({idx})")
                active.add(name)

    def _emit_build(self, out, op: OpBuildSink, active: set[str]) -> None:
        ht = f"_ht_{_ident(op.ht_id)}"
        row_width = 16 + sum(self.width(p) for p in op.payload)
        out.emit(f"# hash-join build into {op.ht_id} (worker-scoped table)")
        out.emit("if _n:")
        out.indent += 1
        out.emit(f"{ht} = state.hash_table({op.ht_id!r})")
        payload = ", ".join(f"{p!r}: {_var(p)}" for p in op.payload)
        out.emit(f"{ht}.insert({_var(op.build_key)}.astype(np.int64), {{{payload}}})")
        out.emit("stats.random_accesses += _n")
        out.emit(f"stats.random_bytes += _n * {row_width}")
        out.emit(f"stats.cpu_cycles += _n * {CYCLES.hash_compute + CYCLES.hash_build_insert!r}")
        out.emit(f"stats.gpu_ops += _n * {CYCLES.gpu_hash_compute + CYCLES.gpu_hash_build_insert!r}")
        out.indent -= 1

    def _emit_reduce(self, out, op: OpReduceSink, provider: DeviceProvider,
                     active: set[str]) -> None:
        out.emit("# ungrouped (partial) reduction into worker accumulators")
        out.emit("if _n:")
        out.indent += 1
        cycles = 0.0
        gpu = 0.0
        for agg in op.aggs:
            attr = f"acc_{_ident(agg.alias)}"
            if agg.kind == "count":
                out.emit_all(provider.emit_accumulate(attr, "_n", "sum"))
            else:
                value = self._src(agg.expr)
                reducer = {"sum": "np.sum", "min": "np.min", "max": "np.max"}[agg.kind]
                kind = "sum" if agg.kind == "sum" else agg.kind
                out.emit_all(
                    provider.emit_accumulate(attr, f"float({reducer}({value}))", kind)
                )
                counts = agg.expr.op_counts()
                cycles += _expr_cycles(counts)
                gpu += _expr_gpu_ops(counts)
            cycles += CYCLES.aggregate_update
            gpu += CYCLES.gpu_aggregate_update
        out.emit(f"stats.cpu_cycles += _n * {cycles!r}")
        out.emit(f"stats.gpu_ops += _n * {gpu!r}")
        out.indent -= 1

    def _emit_group_agg(self, out, op: OpGroupAggSink, provider: DeviceProvider,
                        active: set[str]) -> None:
        out.emit("# grouped (partial) aggregation into the worker's hash table")
        out.emit("if _n:")
        out.indent += 1
        keys = ", ".join(f"{_var(k)}.astype(np.int64)" for k in op.keys)
        out.emit(f"_gkeys = np.stack([{keys}], axis=1)")
        out.emit("_uniq, _inv = state.group_rows(_gkeys)")
        cycles = CYCLES.hash_compute + CYCLES.group_lookup
        gpu = CYCLES.gpu_hash_compute + CYCLES.gpu_group_lookup
        parts = []
        row_width = 8 * len(op.keys)
        for agg in op.aggs:
            var = f"_agg_{_ident(agg.alias)}"
            if agg.kind == "count":
                out.emit(f"{var} = np.bincount(_inv, minlength=_uniq.shape[0])")
            else:
                value = self._src(agg.expr)
                out.emit(f"{var} = np.zeros(_uniq.shape[0], dtype=np.float64)")
                if agg.kind == "sum":
                    out.emit(f"np.add.at({var}, _inv, ({value}).astype(np.float64))")
                elif agg.kind == "min":
                    out.emit(f"{var}.fill(np.inf)")
                    out.emit(f"np.minimum.at({var}, _inv, ({value}).astype(np.float64))")
                else:
                    out.emit(f"{var}.fill(-np.inf)")
                    out.emit(f"np.maximum.at({var}, _inv, ({value}).astype(np.float64))")
                counts = agg.expr.op_counts()
                cycles += _expr_cycles(counts)
                gpu += _expr_gpu_ops(counts)
            cycles += CYCLES.aggregate_update
            gpu += CYCLES.gpu_aggregate_update
            row_width += 8
            parts.append(f"{agg.alias!r}: {var}")
        out.emit("# worker-scoped merge (atomic per group on the GPU)")
        out.emit(f"state.group_update(_uniq, {{{', '.join(parts)}}})")
        out.emit("if len(state.groups) > 4096:")
        out.indent += 1
        out.emit("# large group table: updates spill the cache")
        out.emit("stats.random_accesses += _n")
        out.emit(f"stats.random_bytes += _n * {row_width}")
        out.indent -= 1
        out.emit(f"stats.cpu_cycles += _n * {cycles!r}")
        out.emit(f"stats.gpu_ops += _n * {gpu!r}")
        out.indent -= 1

    def _emit_pack(self, out, op: OpPackSink, active: set[str]) -> None:
        width = sum(self.width(c) for c in op.columns)
        out.emit("# pack: tuple stream -> blocks, flush when full")
        out.emit("if _n:")
        out.indent += 1
        arrays = ", ".join(f"{c!r}: {_var(c)}" for c in op.columns)
        out.emit(f"_emitted.extend(state.packer.push({{{arrays}}}))")
        out.emit(f"stats.bytes_out += _n * {width}")
        out.emit(f"stats.cpu_cycles += _n * {CYCLES.pack_per_tuple!r}")
        out.emit(f"stats.gpu_ops += _n * {CYCLES.gpu_pack_per_tuple!r}")
        out.indent -= 1

    def _emit_hash_pack(self, out, op: OpHashPackSink, active: set[str]) -> None:
        width = sum(self.width(c) for c in op.columns)
        out.emit("# hash-pack: one open block per hash value (router routes on it)")
        out.emit("if _n:")
        out.indent += 1
        out.emit(
            f"_hpart = ({_var(op.key)}.astype(np.int64) % {op.partitions})"
        )
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
