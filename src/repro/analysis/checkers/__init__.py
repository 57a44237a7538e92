"""Built-in invariant checkers.

Importing this package registers every rule with the checker registry;
add a new rule by dropping a module here and importing it below.
"""

from . import (  # noqa: F401
    rp001_determinism,
    rp002_budget,
    rp003_des_process,
    rp004_exceptions,
    rp005_metrics_schema,
    rp006_config_hygiene,
    rp007_failover,
    rp009_float_sum,
    rp010_one_implementation,
)
