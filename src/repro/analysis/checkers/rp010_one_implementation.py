"""RP010: one implementation of each idea — a removed copy stays removed.

Each row of :data:`GATES` bans a pattern that was removed when an idea
collapsed to one site, or pins a one-site idea to its one site.
Structure is matched on the AST, so a reformat cannot hide it and a
fixture string does not trip it; a deleted name or spelling, and code
``jit/codegen.py`` emits, on source lines (``_text``).  ``_outside``
keeps the one function an idea may live in out of its row.  This
module spells the patterns out, so it is not scanned.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

from ..astutil import FUNCTION_NODES
from ..context import ModuleContext
from ..findings import Finding
from ..registry import Checker, register

Matcher = Callable[[ModuleContext], Iterable[int]]


def _chain(node: ast.AST) -> str:
    """``a.b.c``; unlike ``dotted_name``, a dynamic link ends the chain
    (``f().b.c`` reads ``b.c``) instead of voiding it."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _nodes(types: Any, pred: Callable[[Any], Any] = bool) -> Matcher:
    return lambda ctx: (
        getattr(node, "lineno")
        for node in ast.walk(ctx.tree)
        if isinstance(node, types) and pred(node)
    )


def _calls(pattern: str, where: Callable[[Any], Any] = bool) -> Matcher:
    """Calls whose target, read as ``.a.b.c``, matches ``pattern``."""
    regex = re.compile(pattern)
    return _nodes(ast.Call, lambda c: regex.search("." + _chain(c.func)) and where(c))


def _text(pattern: str) -> Matcher:
    regex = re.compile(pattern)
    return lambda ctx: (
        number
        for number, line in enumerate(ctx.source.splitlines(), 1)
        if regex.search(line)
    )


def _any(*matchers: Matcher) -> Matcher:
    return lambda ctx: (line for matcher in matchers for line in matcher(ctx))


def _once(matcher: Matcher) -> Matcher:
    """Lines after the first that match, or line 1 when none does."""

    def match(ctx: ModuleContext) -> list[int]:
        lines = sorted(set(matcher(ctx)))
        return lines[1:] if lines else [1]

    return match


def _outside(function: str, matcher: Matcher) -> Matcher:
    """``matcher``'s lines outside every function called ``function``."""

    def match(ctx: ModuleContext) -> Iterable[int]:
        spans = [range(fn.lineno, fn.end_lineno + 1) for fn in ast.walk(ctx.tree)
                 if isinstance(fn, FUNCTION_NODES) and fn.name == function]
        return (line for line in matcher(ctx) if not any(line in s for s in spans))

    return match


class Gate(NamedTuple):
    """One removed pattern: where it is banned, how it is seen, why."""

    name: str
    pr: int
    scope: tuple[str, ...]
    match: Matcher
    message: str
    exempt: tuple[str, ...] = ()


_REPRO, _TEST_TREES = "src/repro/", ("tests/", "benchmarks/")
_CODEGEN, _HASHTABLE = _REPRO + "jit/codegen.py", _REPRO + "jit/hashtable.py"
_ORACLE, _FLEET = _REPRO + "engine/reference.py", _REPRO + "engine/fleet.py"
_EXECUTOR = _REPRO + "engine/executor.py"

# fmt: off
GATES = (
    Gate("column-scan", 14, (_REPRO,), _calls(r"\w\.tables\.values$"),
         "resolve a column through the catalog, not a scan of catalog.tables",
         (_REPRO + "storage/catalog.py", _ORACLE)),
    Gate("stage-signature", 14, (_REPRO,), _calls(r"\.stage_signature$"),
         "stage_signature( belongs to the executor's one compile site",
         (_REPRO + "jit/cache.py", _EXECUTOR)),
    Gate("hop-close", 16, (_FLEET,), _once(_calls(r"chain\.resolve$")),
         "chain.resolve( appears exactly once, in _close_hop"),
    Gate("fleet-terminal", 16, (_FLEET,), _once(_nodes(ast.Attribute, lambda n:
         isinstance(n.ctx, ast.Store) and _chain(n).endswith("query.status"))),
         "query.status is assigned exactly once, in _finish"),
    Gate("metric-fold", 16, ("src/",), _text(r"_fold_metric"),
         "_fold_metric is back: feed the metric family inline"),
    Gate("ssb-tables", 21, _TEST_TREES, _calls(r"\.generate_ssb$"),
         "generate_ssb( outside tests/scenario.py: use ssb_tables()",
         ("benchmarks/perf/", "tests/scenario.py", "tests/test_ssb.py")),
    Gate("drive-builder", 21, _TEST_TREES, _nodes(FUNCTION_NODES, lambda fn: fn.name
         in ("_server", "_drive") and "tables" in [a.arg for a in fn.args.args]),
         "a private drive builder: describe the drive as a Scenario",
         ("benchmarks/perf/",)),
    Gate("event-closure", 24, (_REPRO + "hardware/sim.py",), _nodes(ast.Lambda),
         "a closure per event: push a bound method and its argument"),
    Gate("eager-label", 24, (_REPRO + "hardware/", _REPRO + "core/"),
         _calls(r"Event$|\.event$|\.submit$", lambda c: any(
             isinstance(node, ast.JoinedStr) for node in ast.walk(c))),
         "a label formatted per event: pass (format, *args), names are lazy"),
    Gate("retry-limbo", 25, (_REPRO,), _text(r"readmit|admissible"),
         "readmit/admissible: a retry re-enters the queue through _requeue"),
    Gate("boundary-hooks", 25, ("src/",), _nodes((ast.keyword, ast.arg), lambda n:
         n.arg in ("checkpoint", "reconfigure")), "one boundary= hook (_at_boundary)"),
    Gate("driver-spawn", 25, (_REPRO + "engine/scheduler.py",), _once(_nodes(
         (ast.Constant, ast.JoinedStr), lambda n: ast.unparse(n).endswith(":driver'"))),
         "the driver spawns exactly once, in _activate"),
    Gate("row-unique", 26, (_REPRO + "jit/", _REPRO + "baselines/", _ORACLE), _any(
         _calls(r"\.unique$", lambda c: "axis=0" in ast.unparse(c)),
         _text(r"np\.unique\(.*axis=0")),
         "np.unique(..., axis=0): use group_rows, or the oracle's _groups"),
    Gate("hash-copy", 26, (_HASHTABLE,), _text(r"astype\(np\.uint64\)"),
         "astype(np.uint64) copies the keys: hash through a view"),
    Gate("metrics-process", 28, (_REPRO,), _text(r"MetricsPump|_pump\b|metrics-writer|"
         r"metrics:wakeup"), "a metrics DES process: feed inline, sample on read"),
    Gate("emitted-mask", 29, (_CODEGEN,), _text(r"\{([^}]+)\} = \{\1\}\[|"
         r"count_nonzero\(_mask"), "boolean-mask compaction: nonzero() and take"),
    Gate("string-per-row", 30, (_REPRO + "ssb/generator.py",), _text(r"zip\(nations|"
         r"for .* in rng\.integers\("), "a string per row: encode the draw (_strings)"),
    Gate("oracle-mask", 30, (_ORACLE,), _text(r"\[(mask|hit)\]"),
         "boolean-mask compaction: select by position (flatnonzero + take)"),
    Gate("oracle-jit", 30, (_ORACLE,), _nodes((ast.Import, ast.ImportFrom), lambda n:
         re.search(r"\bjit\b", ast.unparse(n))), "the oracle imports nothing from jit"),
    Gate("join-footprint", 31, (_HASHTABLE,), _text(r"\b(keys|rows|_direct)\."
         r"(nbytes|itemsize)\b"), "a host array's size: model footprint from capacity"),
    Gate("cache-policies", 33, (_REPRO,), _text(r"EvictionPolicy|LruPolicy|"
         r"CostAwarePolicy|make_eviction_policy|count_for\(|tenant_stats|top_entries="),
         "one eviction rule in _EntryTable, no tenant ledger, no top_entries knob"),
    Gate("emitted-grouping", 34, (_CODEGEN,), _text(r"np\.add\.at|np\.stack\(|"
         r"\.astype\(np\.int64\)"), "keys as stored, group_rows, np.bincount sums"),
    Gate("key-sort", 34, (_REPRO + "jit/pipeline.py",),
         _outside("_overflow_groups", _calls(r"lexsort$")),
         "lexsort outside _overflow_groups: group by the folded int64 code"),
    Gate("grouped-partials", 35, (_REPRO,), _text(r"merge_groups|def groups\(|"
         r"dict\[tuple, dict"), "a second grouped-partial form: use GroupTable"),
    Gate("pipeline-call", 39, (_EXECUTOR,), _once(_calls(r"\.fn$", lambda c: c.args
         and ast.unparse(c.args[0]) == "state")), "the generated pipeline "
         "fn(state, ...) runs at exactly one site: a morsel charges its block's run"),
    Gate("stats-diff", 40, (_EXECUTOR,), _text(r"\b_(snapshot|delta)\("),
         "a stats snapshot diffed around the pipeline: pass it a fresh BlockStats"),
    Gate("handle-meta", 40, tuple(_REPRO + d for d in ("core/", "engine/", "memory/")),
         _text(r"\.meta\b|^\s+meta:"), "a handle annotation dict: a handle is "
         "staged exactly when its transfer_done is set"),
    Gate("locality-rule", 40, (_EXECUTOR, _REPRO + "core/"), _any(_text(
         r"\b(_accessible|_cpu_reads_in_place)\b"), _outside("needs_move", _text(
         r"\.kind is DeviceType\.CPU\b"))),
         "a second locality rule: ask MemMove.needs_move"),
    Gate("block-price", 41, (_REPRO + "engine/", _REPRO + "core/"), _nodes(
         ast.Attribute, lambda n: n.attr in ("min_duration", "link_rate_cap")),
         "block-time arithmetic outside the cost model: ask CostModel.block_price"),
    Gate("warm-router", 42, (_REPRO + "core/", _REPRO + "engine/"), _text(
         r"\b(first_assign_at|expected_wait|_tie_index)\b"),
         "a second load-balance rule: a multi-group router prices every block"),
    Gate("group-callback", 43, (_REPRO + "core/", _REPRO + "engine/"), _text(
         r"\bon_(done|stats)\b"),
         "a group holds no reference back to its router: the worker calls the router"),
    Gate("remote-cache", 44, (_REPRO,), _text(
         r"\b(_remote_cache|acquire_remote|release_all_caches)\b"), "no staging slot "
         "outlives a phase: the phase's MemMove batches remote acquires"),
    Gate("finish-time", 50, (_REPRO + "core/", _REPRO + "engine/"), _outside(
         "_finish", _outside("_price", _text(r"//\s*\w+\.dop\b"))), "a second "
         "finish-time rule: routing and take-back share Router._finish"),
)
# fmt: on


@register
class OneImplementationChecker(Checker):
    rule_id = "RP010"
    title = "one implementation of each idea: a removed copy stays removed"

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        path = ctx.rel_path
        if path.endswith("analysis/checkers/" + Path(__file__).name):
            return
        for gate in GATES:
            if path.startswith(gate.scope) and not path.startswith(gate.exempt):
                for line in sorted(set(gate.match(ctx))):
                    message = f"{gate.message} [{gate.name}, PR {gate.pr}]"
                    yield self.finding(ctx, line, message)
