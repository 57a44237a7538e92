"""Engine invariant analyzer tests.

Each checker gets fixture-tree positives *and* negatives (the compliant
engine idioms must stay legal), plus noqa suppression, CLI exit-code
contracts, and a self-scan asserting the trees CI scans
(``DEFAULT_SCAN_DIRS``) carry zero findings.  RP010 is one table of
removed patterns; every row has a snippet it must flag and one it must
not.
"""

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_checkers, analyze_paths, main
from repro.analysis.checkers.rp010_one_implementation import GATES
from repro.analysis.cli import DEFAULT_SCAN_DIRS
from repro.analysis.runner import PARSE_RULE
from repro.analysis.suppress import is_suppressed, noqa_lines

REPO_ROOT = Path(__file__).resolve().parents[1]

ENGINE = "src/repro/engine/mod.py"
CORE = "src/repro/core/mod.py"
HARDWARE = "src/repro/hardware/mod.py"
BENCH = "benchmarks/bench.py"


def project(tmp_path, files):
    """Write a fixture tree (with a root marker) and return its root."""
    (tmp_path / "pyproject.toml").write_text("# fixture root marker\n")
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def scan(root):
    return analyze_paths([root], root=root)


def by_rule(result, rule_id):
    return [f for f in result.findings if f.rule_id == rule_id]


def test_registry_exposes_all_eight_rules():
    ids = [checker.rule_id for checker in all_checkers()]
    assert ids == [
        "RP001", "RP002", "RP003", "RP004", "RP005", "RP006", "RP007", "RP010",
    ]


def test_unparsable_file_reports_rp000(tmp_path):
    root = project(tmp_path, {ENGINE: "def broken(:\n"})
    result = scan(root)
    assert [f.rule_id for f in result.findings] == [PARSE_RULE]
    assert result.checked_files == 0


class TestRP001Determinism:
    def test_wall_clock_in_engine_tree(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                import time
                import datetime

                def run(sim):
                    start = time.time()
                    stamp = datetime.datetime.now()
                    return start, stamp
                """
            },
        )
        found = by_rule(scan(root), "RP001")
        assert len(found) == 2
        assert "time.time" in found[0].message
        assert found[0].line == 5

    def test_wall_clock_legal_outside_engine_tree(self, tmp_path):
        root = project(
            tmp_path,
            {
                BENCH: """\
                import time

                def measure(fn):
                    start = time.perf_counter()
                    fn()
                    return time.perf_counter() - start
                """
            },
        )
        assert by_rule(scan(root), "RP001") == []

    def test_unseeded_randomness_flagged_everywhere(self, tmp_path):
        root = project(
            tmp_path,
            {
                BENCH: """\
                import random
                import numpy as np

                def jitter(xs):
                    random.shuffle(xs)
                    rng = random.Random()
                    fresh = np.random.default_rng()
                    return rng, fresh, np.random.rand(3)
                """
            },
        )
        found = by_rule(scan(root), "RP001")
        assert len(found) == 4

    def test_seeded_generators_are_legal(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                import random
                import numpy as np

                def draws(seed):
                    rng = random.Random(seed)
                    gen = np.random.default_rng(seed)
                    return rng.random(), gen.normal()
                """
            },
        )
        assert by_rule(scan(root), "RP001") == []


class TestRP002BudgetDiscipline:
    LEAK = """\
    class Admission:
        def admit(self, session, demand):
            self.budget.allocate(demand)
            session.start()
    """

    def test_acquire_without_release_is_flagged(self, tmp_path):
        root = project(tmp_path, {ENGINE: self.LEAK})
        found = by_rule(scan(root), "RP002")
        assert len(found) == 1
        assert "self.budget.allocate" in found[0].message

    def test_out_of_engine_tree_is_out_of_scope(self, tmp_path):
        root = project(tmp_path, {BENCH: self.LEAK})
        assert by_rule(scan(root), "RP002") == []

    def test_recording_the_hold_is_compliant(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                class Admission:
                    def admit(self, session, demand):
                        self.budget.allocate(demand)
                        session.held_demand = demand
                """
            },
        )
        assert by_rule(scan(root), "RP002") == []

    def test_release_in_finally_is_compliant(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                class Admission:
                    def run_once(self, demand):
                        self.budget.allocate(demand)
                        try:
                            self.step()
                        finally:
                            self.budget.release(demand)
                """
            },
        )
        assert by_rule(scan(root), "RP002") == []

    def test_non_budget_receivers_ignored(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                class Worker:
                    def grab(self):
                        self.lock.acquire()
                """
            },
        )
        assert by_rule(scan(root), "RP002") == []


class TestRP003DesProcess:
    def test_blocking_call_in_generator(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                import time

                def proc(sim):
                    time.sleep(0.1)
                    yield sim.timeout(1)
                """
            },
        )
        found = by_rule(scan(root), "RP003")
        assert len(found) == 1
        assert "time.sleep" in found[0].message

    def test_blocking_call_in_plain_function_not_in_scope(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                import time

                def warmup():
                    time.sleep(0.1)
                """
            },
        )
        assert by_rule(scan(root), "RP003") == []

    def test_return_holding_staged_credits(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def mover(sim, staging):
                    staging.await_credit()
                    yield sim.timeout(1)
                    return None
                """
            },
        )
        found = by_rule(scan(root), "RP003")
        assert len(found) == 1
        assert "staged credits" in found[0].message

    def test_release_before_return_is_compliant(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def mover(sim, staging):
                    staging.await_credit()
                    yield sim.timeout(1)
                    staging.release_staged(0)
                    return
                """
            },
        )
        assert by_rule(scan(root), "RP003") == []

    def test_finally_guarded_return_is_compliant(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def mover(sim, staging):
                    staging.await_credit()
                    try:
                        yield sim.timeout(1)
                        return
                    finally:
                        staging.abort_outstanding()
                """
            },
        )
        assert by_rule(scan(root), "RP003") == []

    def test_return_before_acquire_is_compliant(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def mover(sim, staging):
                    if sim.idle:
                        return
                    staging.await_credit()
                    yield sim.timeout(1)
                """
            },
        )
        assert by_rule(scan(root), "RP003") == []


class TestRP004ExceptionDiscipline:
    SWALLOW = """\
    def drive(session):
        try:
            session.step()
        except Exception:
            pass

    def drain(queue):
        try:
            return queue.pop()
        except:
            return None
    """

    def test_swallowing_blanket_handlers_flagged(self, tmp_path):
        root = project(tmp_path, {CORE: self.SWALLOW})
        found = by_rule(scan(root), "RP004")
        assert len(found) == 2
        assert "except Exception" in found[0].message
        assert "bare except:" in found[1].message

    def test_scope_is_engine_and_core_only(self, tmp_path):
        root = project(tmp_path, {HARDWARE: self.SWALLOW})
        assert by_rule(scan(root), "RP004") == []

    def test_compliant_handlers(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def ok_reraise(session):
                    try:
                        session.step()
                    except Exception:
                        raise

                def ok_classify(session):
                    try:
                        session.step()
                    except Exception as error:
                        session.outcome = classify_failure(error)

                def ok_forward(done, work):
                    try:
                        work()
                    except Exception as error:
                        done.fail(error)

                def ok_narrow(queue):
                    try:
                        return queue.pop()
                    except IndexError:
                        return None
                """
            },
        )
        assert by_rule(scan(root), "RP004") == []


class TestRP005MetricsSchema:
    FIXTURE = {
        "tests/test_metrics.py": """\
        EXPECTED_FAMILIES = {
            "repro_jobs_total",
            "repro_ghost_total",
        }
        """,
        "src/repro/engine/dup.py": """\
        class Dup:
            def __init__(self, registry):
                self.jobs = registry.gauge("repro_jobs_total", "again")
        """,
        "src/repro/engine/surface.py": """\
        class Surface:
            def __init__(self, registry):
                self.jobs = registry.counter(
                    "repro_jobs_total", "jobs", labels=("tenant",)
                )
                self.spare = registry.counter("repro_spare_total", "x")

            def feed(self, tenant):
                self.jobs.inc(tenant=tenant)

            def feed_bad(self):
                self.jobs.inc(queue="q0")
        """,
    }

    def test_schema_violations(self, tmp_path):
        root = project(tmp_path, dict(self.FIXTURE))
        found = by_rule(scan(root), "RP005")
        messages = [f.message for f in found]
        assert len(found) == 4
        assert any("re-registered" in m or "more than once" in m for m in messages)
        assert any("passes" in m and "'queue'" in m for m in messages)
        assert any("repro_spare_total" in m and "pinned" in m for m in messages)
        assert any("repro_ghost_total" in m and "no longer" in m for m in messages)

    def test_pin_drift_anchors_at_pin_file(self, tmp_path):
        root = project(tmp_path, dict(self.FIXTURE))
        found = by_rule(scan(root), "RP005")
        ghost = [f for f in found if "repro_ghost_total" in f.message]
        assert ghost[0].path == "tests/test_metrics.py"

    def test_consistent_schema_is_clean(self, tmp_path):
        root = project(
            tmp_path,
            {
                "tests/test_metrics.py": """\
                EXPECTED_FAMILIES = {"repro_jobs_total"}
                """,
                "src/repro/engine/surface.py": """\
                class Surface:
                    def __init__(self, registry):
                        self.jobs = registry.counter(
                            "repro_jobs_total", "jobs", labels=("tenant",)
                        )

                    def feed(self, tenant):
                        self.jobs.inc(tenant=tenant)
                """,
            },
        )
        assert by_rule(scan(root), "RP005") == []


class TestRP006ConfigHygiene:
    def test_mutable_defaults_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                BENCH: """\
                from dataclasses import dataclass, field

                def make(xs=[], mapping=None, *, tags={}, opts=dict()):
                    return xs, mapping, tags, opts

                @dataclass
                class Config:
                    names: list = field(default=[])
                """
            },
        )
        found = by_rule(scan(root), "RP006")
        assert len(found) == 4
        assert any("Config.names" in f.message for f in found)

    def test_immutable_and_factory_defaults_are_clean(self, tmp_path):
        root = project(
            tmp_path,
            {
                BENCH: """\
                from dataclasses import dataclass, field

                def make(xs=None, pair=(), label="x"):
                    return xs, pair, label

                @dataclass
                class Config:
                    names: list = field(default_factory=list)
                    safe: tuple = ()
                """
            },
        )
        assert by_rule(scan(root), "RP006") == []


class TestRP007FailoverDiscipline:
    def test_discarded_hop_handle_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def dispatch(chain, replica):
                    chain.begin_attempt(replica)
                    chain.resolve(0, "ok")
                    chain.resolve(0, "server_lost")
                """
            },
        )
        found = by_rule(scan(root), "RP007")
        assert len(found) == 1
        assert "discarded" in found[0].message
        assert found[0].line == 2

    def test_local_hop_without_failure_path_flagged(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def dispatch(chain, server, plan):
                    hop = chain.begin_attempt(server.name)
                    result = server.run(plan)
                    chain.resolve(hop, "ok")
                    return result
                """
            },
        )
        found = by_rule(scan(root), "RP007")
        assert len(found) == 1
        assert "both paths" in found[0].message

    def test_resolve_on_success_and_failure_is_clean(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def dispatch(chain, server, plan):
                    hop = chain.begin_attempt(server.name)
                    try:
                        result = server.run(plan)
                    except RuntimeError as error:
                        chain.resolve(hop, "server_lost")
                        raise error
                    chain.resolve(hop, "ok")
                    return result
                """
            },
        )
        assert by_rule(scan(root), "RP007") == []

    def test_resolve_in_finally_is_clean(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def dispatch(chain, server, plan):
                    hop = chain.begin_attempt(server.name)
                    outcome = "server_lost"
                    try:
                        result = server.run(plan)
                        outcome = "ok"
                        return result
                    finally:
                        chain.resolve(hop, outcome)
                """
            },
        )
        assert by_rule(scan(root), "RP007") == []

    def test_escaped_hop_handle_is_the_callers_problem(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                def open_hop(chain, server):
                    server.inflight += 1
                    return chain.begin_attempt(server.name)

                def store_hop(entry, chain, server):
                    entry["hop"] = chain.begin_attempt(server.name)

                def pass_hop(entries, chain, server):
                    entries.append(make_entry(chain.begin_attempt(server.name)))
                """
            },
        )
        assert by_rule(scan(root), "RP007") == []

    def test_rule_scoped_to_engine_tree(self, tmp_path):
        root = project(
            tmp_path,
            {
                BENCH: """\
                def sloppy(chain, replica):
                    chain.begin_attempt(replica)
                """
            },
        )
        assert by_rule(scan(root), "RP007") == []


JIT = "src/repro/jit/mod.py"
CODEGEN = "src/repro/jit/codegen.py"
HASHTABLE = "src/repro/jit/hashtable.py"
PIPELINE = "src/repro/jit/pipeline.py"
ORACLE = "src/repro/engine/reference.py"
FLEET = "src/repro/engine/fleet.py"
SCHEDULER = "src/repro/engine/scheduler.py"
SUITE = "tests/test_suite.py"

#: RP010 row -> (path, source it must flag, source it must not flag);
#: the flagged source marks each line a finding must anchor at with "# <-"
RP010_CASES = {
    "column-scan": (
        ENGINE,
        "rows = self.catalog.tables.values()  # <-\n",
        "rows = tables.values()\n",
    ),
    "stage-signature": (
        CODEGEN,
        "key = stage_signature(stage, width)  # <-\n",
        "key = self.cache.lookup(stage)\n",
    ),
    "hop-close": (
        FLEET,
        'chain.resolve(hop, "ok")\nchain.resolve(hop, "failed")  # <-\n',
        '# chain.resolve( in a comment is not a call\nchain.resolve(hop, "ok")\n',
    ),
    "fleet-terminal": (
        FLEET,
        'query.status = "done"\nquery.status = "failed"  # <-\n',
        'query.status = "done" if ok else "failed"\nok = query.status == "done"\n',
    ),
    "metric-fold": (
        ENGINE,
        "self._fold_metric(kind, fields)  # <-\n",
        "self._m_hops.inc(outcome=kind)\n",
    ),
    "ssb-tables": (
        SUITE,
        "tables = generate_ssb(scale_factor=0.01)  # <-\n",
        'SOURCE = "tables = generate_ssb(scale_factor=0.01)"\n',
    ),
    "drive-builder": (
        SUITE,
        "def _server(self, tables, **kwargs):  # <-\n    pass\n",
        'SOURCE = "def _server(tables, **kwargs): pass"\n',
    ),
    "event-closure": (
        "src/repro/hardware/sim.py",
        "sim._schedule_call(lambda: fn(self))  # <-\n",
        "sim._schedule_call(fn, self)  # a bound method, no lambda\n",
    ),
    "eager-label": (
        HARDWARE,
        'event = Event(  # <-\n    self.sim,\n    name=f"acquire:{self.name}",\n)\n',
        'event = Event(self.sim, "acquire:{}", self.name)\n',
    ),
    "retry-limbo": (
        ENGINE,
        "session.readmit_event = None  # <-\n",
        "self._requeue(session)\n",
    ),
    "boundary-hooks": (
        ENGINE,
        "executor.execute_process(plan, checkpoint=hook)  # <-\n",
        "executor.execute_process(plan, boundary=hook)\n",
    ),
    "driver-spawn": (
        SCHEDULER,
        'sim.process(d, name=f"{tag}:driver")\n'
        'sim.process(d, name=f"{tag}:driver")  # <-\n',
        'sim.process(d, name=f"{tag}:driver")\n',
    ),
    "row-unique": (
        JIT,
        "uniq = np.unique(  # <-\n    keys,\n    axis=0,\n)\n"
        'out.emit("_u = np.unique(_k, axis=0)")  # <-\n',
        "uniq = np.unique(keys)\n",
    ),
    "hash-copy": (
        HASHTABLE,
        "mixed = keys.astype(np.uint64) * MIX  # <-\n",
        "mixed = keys.view(np.uint64) * MIX\n",
    ),
    "metrics-process": (
        ENGINE,
        'sim.process(self._run(), name="metrics-writer")  # <-\n',
        "self._m_depth.set(len(queue))\n",
    ),
    "emitted-mask": (
        CODEGEN,
        'out.emit(f"{_var(name)} = {_var(name)}[{mask}]")  # <-\n',
        'out.emit(f"{_var(name)} = {_var(name)}.take({idx})")\n',
    ),
    "string-per-row": (
        "src/repro/ssb/generator.py",
        "cities = [_city(n, d) for n, d in zip(nations, digits)]  # <-\n"
        "modes = [MODES[i] for i in rng.integers(0, 7, n)]  # <-\n",
        "modes = _strings(MODES, rng.integers(0, 7, n))\n",
    ),
    "oracle-mask": (
        ORACLE,
        "out = values[mask]  # <-\n",
        "out = values.take(np.flatnonzero(mask))\n",
    ),
    "oracle-jit": (
        ORACLE,
        "from ..jit.hashtable import HashTable  # <-\nfrom .. import jit  # <-\n",
        "from ..storage.catalog import Catalog\n",
    ),
    "join-footprint": (
        HASHTABLE,
        "size = self.keys.nbytes + self.rows.nbytes  # <-\n",
        "size = payload.nbytes + self.capacity * SLOT_BYTES\n",
    ),
    "cache-policies": (
        "src/repro/jit/cache.py",
        "class LruPolicy(EvictionPolicy):  # <-\n"
        "    pass\n"
        "cache = PipelineCache(capacity=8, top_entries=5)  # <-\n",
        'table = _EntryTable(rule="cost")\nsnapshot = {"top_entries": entries}\n',
    ),
    "emitted-grouping": (
        CODEGEN,
        'out.emit(f"np.add.at({var}, _inv, {value})")  # <-\n',
        'out.emit(f"{var} += np.bincount(_inv, {value})")\n',
    ),
    "key-sort": (
        PIPELINE,
        "def group_rows(keys):\n    return np.lexsort(keys)  # <-\n",
        "def _overflow_groups(keys):\n    return np.lexsort(keys)\n",
    ),
    "grouped-partials": (
        ENGINE,
        "merged = merge_groups(aggs, partials)  # <-\n"
        "def groups(self):  # <-\n"
        "    acc: dict[tuple, dict[str, float]] = {}  # <-\n",
        "merged = GroupTable.merge(partials)\nacc: dict[tuple, float] = {}\n",
    ),
}


def rp010_lines(tmp_path, path, source, gate=""):
    """Lines of the RP010 findings (of one row, when ``gate`` names it)."""
    tmp_path.mkdir(exist_ok=True)
    root = project(tmp_path, {path: source})
    found = by_rule(scan(root), "RP010")
    return [f.line for f in found if f"[{gate}" in f.message]


class TestRP010OneImplementation:
    def test_every_row_has_a_case(self):
        assert sorted(RP010_CASES) == sorted(gate.name for gate in GATES)

    @pytest.mark.parametrize("gate", GATES, ids=[gate.name for gate in GATES])
    def test_row_flags_the_pattern_and_passes_the_fix(self, tmp_path, gate):
        path, flagged, clean = RP010_CASES[gate.name]
        marked = [
            number
            for number, line in enumerate(flagged.splitlines(), 1)
            if line.endswith("# <-")
        ]
        assert rp010_lines(tmp_path / "flag", path, flagged, gate.name) == marked
        assert rp010_lines(tmp_path / "clean", path, clean, gate.name) == []

    def test_exempt_paths_are_exempt(self, tmp_path):
        root = project(
            tmp_path,
            {
                "src/repro/engine/executor.py": "stage_signature(stage, width)\n",
                "tests/scenario.py": "tables = generate_ssb(0.01)\n",
                "benchmarks/perf/run.py": "tables = generate_ssb(0.01)\n",
            },
        )
        assert by_rule(scan(root), "RP010") == []

    def test_exactly_once_flags_a_missing_site(self, tmp_path):
        assert rp010_lines(tmp_path, SCHEDULER, "x = 1\n") == [1]

    def test_noqa_accepts_a_finding(self, tmp_path):
        source = (
            "for table in self.catalog.tables.values():"
            "  # repro: noqa[RP010] a one-off audit walks every table\n"
            "    pass\n"
        )
        assert rp010_lines(tmp_path, ENGINE, source) == []


class TestSuppression:
    def test_targeted_noqa_suppresses_only_that_rule(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                import time

                def run(sim):
                    return time.time()  # repro: noqa[RP001]
                """
            },
        )
        assert scan(root).findings == []

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                import time

                def run(sim):
                    return time.time()  # repro: noqa[RP006]
                """
            },
        )
        assert len(by_rule(scan(root), "RP001")) == 1

    def test_blanket_noqa_suppresses_everything(self, tmp_path):
        root = project(
            tmp_path,
            {
                ENGINE: """\
                import time

                def run(sim):
                    return time.time()  # repro: noqa
                """
            },
        )
        assert scan(root).findings == []

    def test_marker_inside_string_literal_is_inert(self):
        assert noqa_lines('text = "# repro: noqa[RP001]"\n') == {}

    def test_is_suppressed_semantics(self):
        noqa = noqa_lines("x = 1  # repro: noqa[RP001, rp002]\ny = 2\n")
        assert is_suppressed(noqa, 1, "RP001")
        assert is_suppressed(noqa, 1, "RP002")
        assert not is_suppressed(noqa, 1, "RP003")
        assert not is_suppressed(noqa, 2, "RP001")


VIOLATION = {
    ENGINE: """\
    import time

    def run(sim):
        return time.time()
    """
}


class TestCli:
    def test_violation_exits_one_with_text_report(self, tmp_path):
        root = project(tmp_path, dict(VIOLATION))
        out = io.StringIO()
        assert main([str(root)], out=out) == 1
        text = out.getvalue()
        assert "RP001" in text
        assert "src/repro/engine/mod.py:4" in text

    def test_json_format(self, tmp_path):
        root = project(tmp_path, dict(VIOLATION))
        out = io.StringIO()
        assert main([str(root), "--format", "json"], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["version"] == 1
        assert payload["checked_files"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["RP001"]

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nope")], out=io.StringIO()) == 2

    def test_list_rules(self):
        out = io.StringIO()
        assert main(["--list-rules"], out=out) == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("RP001")


class TestSelfScan:
    """The repo's own tree must pass its own gate (CI runs this too)."""

    def test_default_scan_dirs_have_no_findings(self):
        result = analyze_paths(
            [REPO_ROOT / name for name in DEFAULT_SCAN_DIRS], root=REPO_ROOT
        )
        assert result.checked_files > 100
        assert [f.render_text() for f in result.findings] == []

    def test_cli_gate_passes_on_repo(self):
        out = io.StringIO()
        code = main([str(REPO_ROOT / name) for name in DEFAULT_SCAN_DIRS], out=out)
        assert code == 0
