"""SSB experiment harness: the setups behind the paper's Figures 4-6.

Each function builds fresh engines on the paper's simulated server, loads
one shared physical SSB dataset replayed at the requested *logical* scale
factor, runs the queries, and returns the execution-time tables that the
corresponding figure plots.

Fidelity notes on the knobs:

* ``physical_sf`` controls how much real data flows through the engines
  (correctness and selectivities); ``logical_sf`` controls the byte
  volumes the cost model sees (SF100 / SF1000 in the paper);
* ``block_tuples`` is chosen so the *number of blocks* is realistic
  (hundreds), keeping router/mem-move dynamics representative even though
  each physical block is small;
* ``segment_rows`` keeps several segments per table so NUMA interleaving
  and GPU partitioning actually spread data (the paper's placements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..baselines.gpu_operator import DBMSG, GpuMemoryError
from ..baselines.vectorized_cpu import DBMSC
from ..baselines.common import UnsupportedQueryError
from ..engine.config import ExecutionConfig
from ..engine.proteus import Proteus
from ..storage.table import Table
from .generator import generate_ssb
from .loader import load_ssb, working_set_bytes
from .queries import QUERY_GROUP, SSB_QUERY_IDS, ssb_query

__all__ = [
    "HarnessSettings",
    "FigureResult",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "FAILED",
    "UNSUPPORTED",
]

#: sentinel execution times for queries a system cannot run
UNSUPPORTED = float("nan")
FAILED = float("inf")


@dataclass
class HarnessSettings:
    """Shared experiment knobs (defaults sized for benchmark runs)."""

    physical_sf: float = 0.01
    seed: int = 42
    block_tuples: int = 256
    segment_rows: int = 2048
    gpu_ids: tuple[int, ...] = (0, 1)
    cpu_workers: int = 24

    def config(self, mode: str) -> ExecutionConfig:
        if mode == "cpu":
            return ExecutionConfig.cpu_only(self.cpu_workers,
                                            block_tuples=self.block_tuples)
        if mode == "gpu":
            return ExecutionConfig.gpu_only(self.gpu_ids,
                                            block_tuples=self.block_tuples)
        if mode == "hybrid":
            return ExecutionConfig.hybrid(self.cpu_workers, self.gpu_ids,
                                          block_tuples=self.block_tuples)
        raise ValueError(f"unknown mode {mode!r}")


@dataclass
class FigureResult:
    """Execution times per query per system, plus run metadata."""

    #: system name -> query id -> simulated seconds
    seconds: dict[str, dict[str, float]]
    #: query id -> logical working-set bytes
    working_set: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    def speedup(self, faster: str, slower: str, qid: str) -> float:
        return self.seconds[slower][qid] / self.seconds[faster][qid]


def _proteus(settings: HarnessSettings, tables: dict[str, Table],
             logical_sf: float) -> Proteus:
    engine = Proteus(segment_rows=settings.segment_rows)
    load_ssb(engine, logical_sf=logical_sf, tables=tables)
    return engine


def _run_figure(settings: Optional[HarnessSettings], logical_sf: float,
                queries: Optional[list[str]], proteus: dict[str, str],
                gpu_resident: bool) -> FigureResult:
    """One SSB sweep over DBMS C, the given Proteus systems and DBMS G.

    ``proteus`` maps a system name to its :meth:`HarnessSettings.config`
    mode.  ``gpu_resident`` is the SF100 setting: the GPU engines hold
    their data in device memory, and DBMS G's reported failure is the
    unsupported query; streaming (SF1000), it is the device OOM.
    """
    settings = settings or HarnessSettings()
    tables = generate_ssb(settings.physical_sf, settings.seed)
    result = FigureResult(seconds={}, notes={"logical_sf": f"{logical_sf:g}"})
    dbms_c = DBMSC(segment_rows=settings.segment_rows)
    dbms_g = DBMSG(segment_rows=settings.segment_rows)
    for baseline in (dbms_c, dbms_g):
        load_ssb(baseline, logical_sf=logical_sf, tables=tables)
    engines = {name: _proteus(settings, tables, logical_sf) for name in proteus}
    if gpu_resident:
        # "Proteus GPU randomly partitions each table between the two GPUs."
        for name in tables:
            engines["Proteus GPUs"].place_gpu_partitioned(name, seed=settings.seed)
    failure, sentinel, note = (
        (UnsupportedQueryError, UNSUPPORTED, "string inequality unsupported")
        if gpu_resident
        else (GpuMemoryError, FAILED, "out of device memory: {}")
    )
    result.seconds = {name: {} for name in ("DBMS C", *proteus, "DBMS G")}
    for qid in queries or SSB_QUERY_IDS:
        plan = ssb_query(qid)
        result.working_set[qid] = working_set_bytes(dbms_c.catalog, plan)
        result.seconds["DBMS C"][qid] = dbms_c.query(
            plan, workers=settings.cpu_workers).seconds
        for name, mode in proteus.items():
            result.seconds[name][qid] = engines[name].query(
                plan, settings.config(mode)).seconds
        try:
            result.seconds["DBMS G"][qid] = dbms_g.query(
                plan, gpu_ids=settings.gpu_ids, gpu_resident=gpu_resident,
                vector_tuples=settings.block_tuples * 16).seconds
            if qid == "Q2.2":  # reached only when streaming
                result.notes["DBMS G Q2.2"] = "reverted to CPU-only execution"
        except failure as err:
            result.seconds["DBMS G"][qid] = sentinel
            result.notes[f"DBMS G {qid}"] = note.format(err)
    return result


def run_fig4(settings: Optional[HarnessSettings] = None,
             logical_sf: float = 100.0,
             queries: Optional[list[str]] = None) -> FigureResult:
    """Figure 4: SSB at SF100 — GPU-fitting working sets.

    "Proteus GPU and DBMS G fit the necessary columns in the aggregate
    device memory of the two GPUs.  DBMS C and Proteus CPU configurations
    operate over columnar data that reside in CPU memory."
    """
    return _run_figure(
        settings, logical_sf, queries,
        {"Proteus CPUs": "cpu", "Proteus GPUs": "gpu"}, gpu_resident=True,
    )


def run_fig5(settings: Optional[HarnessSettings] = None,
             logical_sf: float = 1000.0,
             queries: Optional[list[str]] = None) -> FigureResult:
    """Figure 5: SSB at SF1000 — working sets exceed GPU memory.

    All data CPU-resident; GPU engines stream over PCIe.  Proteus Hybrid
    uses all CPUs and GPUs.
    """
    return _run_figure(
        settings, logical_sf, queries,
        {"Proteus CPUs": "cpu", "Proteus Hybrid": "hybrid", "Proteus GPUs": "gpu"},
        gpu_resident=False,
    )


def run_fig6(settings: Optional[HarnessSettings] = None,
             logical_sf: float = 1000.0,
             core_counts: tuple[int, ...] = (1, 2, 4, 8, 12, 16, 20, 24),
             gpu_settings: tuple[int, ...] = (0, 2),
             groups: tuple[int, ...] = (1, 2, 3, 4)) -> dict:
    """Figure 6: scalability of Proteus on SSB SF1000.

    Returns speed-ups over sequential (1-core, no-GPU) execution of each
    query *group* total time, for every (#cores, #gpus) combination.
    """
    settings = settings or HarnessSettings()
    tables = generate_ssb(settings.physical_sf, settings.seed)
    group_queries = {
        g: [qid for qid in SSB_QUERY_IDS if QUERY_GROUP[qid] == g]
        for g in groups
    }

    def group_time(cores: int, gpus: int) -> dict[int, float]:
        engine = _proteus(settings, tables, logical_sf)
        if gpus and cores:
            config = ExecutionConfig.hybrid(
                cores, settings.gpu_ids[:gpus], block_tuples=settings.block_tuples
            )
        elif gpus:
            config = ExecutionConfig.gpu_only(
                settings.gpu_ids[:gpus], block_tuples=settings.block_tuples
            )
        else:
            config = ExecutionConfig.cpu_only(
                cores, block_tuples=settings.block_tuples
            )
        return {
            g: sum(engine.query(ssb_query(qid), config).seconds
                   for qid in queries)
            for g, queries in group_queries.items()
        }

    baseline = group_time(1, 0)
    out: dict = {"core_counts": list(core_counts), "speedups": {}}
    for gpus in gpu_settings:
        # a GPU line also carries the figure's 0-core (GPU-only) point
        for cores in (*core_counts, 0) if gpus else core_counts:
            if cores == 0 and gpus == 0:
                continue
            times = group_time(cores, gpus)
            for g in groups:
                out["speedups"].setdefault((gpus, g), {})[cores] = (
                    baseline[g] / times[g]
                )
    return out
