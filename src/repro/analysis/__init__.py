"""Engine invariant analyzer: static enforcement of runtime contracts.

The simulator's correctness rests on invariants that differential tests
can only catch *after* they fire at runtime: per-seed determinism,
``ResourceBudget`` acquire/release conservation, DES-process discipline,
the typed-failure taxonomy, the pinned ``repro_*`` metrics schema, config
hygiene, failover hops and one site per idea.  This package moves that
class of defect to check time: an AST-based lint framework with

* a plug-in checker registry (:mod:`repro.analysis.registry`) — each
  rule is a :class:`~repro.analysis.registry.Checker` with an ``RPxxx``
  id, registered by decorator;
* :class:`~repro.analysis.findings.Finding` records
  ``(rule_id, path, line, message)``;
* one way to accept a finding: an inline ``# repro: noqa[RPxxx]``
  comment with its justification (:mod:`repro.analysis.suppress`) —
  the gate is "0 findings after noqa";
* a CLI — ``python -m repro.analysis [--format text|json]
  [paths...]`` — wired as a blocking CI job.

Rule catalog (see each checker module's docstring for the contract):

====== ==============================================================
RP000  file does not parse (reserved; emitted by the runner)
RP001  determinism: no wall clock / unseeded randomness in simulation
RP002  budget discipline: acquire pairs with a reachable release
RP003  DES processes: no blocking calls, no return holding credits
RP004  exception discipline: no swallowing blanket handlers
RP005  metrics schema: repro_* families registered once, labels
       consistent, family set matching the pinned schema
RP006  config hygiene: no shared mutable defaults
RP007  failover: every FallbackChain hop resolves a typed outcome
RP009  no builtin sum() in simulated-time packages (3.12 floats)
RP010  one implementation of each idea: a removed copy stays removed
====== ==============================================================
"""

from .cli import main
from .findings import Finding, sort_findings
from .registry import Checker, all_checkers, get_checker, register
from .runner import AnalysisResult, analyze_paths

__all__ = [
    "AnalysisResult",
    "Checker",
    "Finding",
    "all_checkers",
    "analyze_paths",
    "get_checker",
    "main",
    "register",
    "sort_findings",
]
