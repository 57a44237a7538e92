"""The engine layer: from one-shot query execution to multi-query serving.

Three tiers build on each other:

* **Execution** — :class:`~repro.engine.executor.Executor` runs one
  heterogeneity-aware plan as a network of DES processes (routers,
  mem-moves, device crossings) on the simulated server.  Its
  ``execute_process`` form is re-entrant: all per-query state lives in a
  per-query :class:`~repro.jit.pipeline.QueryState` and generator locals,
  so any number of queries can interleave on one shared simulator.

* **Facade** — :class:`~repro.engine.proteus.Proteus` is the single-query
  entry point of the paper's system: register tables, choose placements,
  run logical plans under an :class:`~repro.engine.config.ExecutionConfig`
  and get rows plus a simulated :class:`~repro.engine.results.ExecutionProfile`.
  Every Proteus engine shares one compiled-pipeline cache across the
  queries it runs.

* **Serving** — :class:`~repro.engine.scheduler.EngineServer` accepts a
  *stream* of logical plans, admission-controls them against a shared
  :class:`~repro.engine.scheduler.ResourceBudget` (cost-model-estimated
  DRAM/HBM/PCIe demand), interleaves admitted queries' phase networks on
  the shared simulator, and reports per-query latency plus aggregate
  throughput in a :class:`~repro.engine.scheduler.BatchReport`.  Wrap an
  existing engine with ``EngineServer(engine=...)``.

Correctness for every tier is anchored by
:class:`~repro.engine.reference.ReferenceExecutor`, the independent
NumPy interpreter used as the differential-testing oracle.
"""

from .config import (
    CachePolicy,
    ElasticPolicy,
    ExecutionConfig,
    QoS,
)
from .executor import Executor, QueryError, RawExecution
from .faults import (
    DeviceLossFault,
    DeviceLostError,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SpuriousAbortFault,
    StragglerFault,
    TransferTimeout,
    classify_failure,
)
from .metrics import MetricsRegistry
from .proteus import Proteus
from .results import ExecutionProfile, QueryResult
from .tenancy import DeficitRoundRobin, RateLimit, Tenant, TokenBucket
from .scheduler import (
    AdmissionError,
    BatchReport,
    EngineServer,
    QuerySession,
    ResourceBudget,
    SchedulerError,
)

__all__ = [
    "CachePolicy",
    "ElasticPolicy",
    "ExecutionConfig",
    "QoS",
    "Tenant",
    "RateLimit",
    "TokenBucket",
    "DeficitRoundRobin",
    "MetricsRegistry",
    "Executor",
    "QueryError",
    "RawExecution",
    "Proteus",
    "ExecutionProfile",
    "QueryResult",
    "EngineServer",
    "QuerySession",
    "ResourceBudget",
    "BatchReport",
    "AdmissionError",
    "SchedulerError",
    "DeviceLossFault",
    "DeviceLostError",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "SpuriousAbortFault",
    "StragglerFault",
    "TransferTimeout",
    "classify_failure",
]
