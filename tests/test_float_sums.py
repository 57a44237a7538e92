"""Simulated time does not depend on the interpreter's float ``sum``.

CPython 3.12 made the builtin ``sum`` of floats compensated (Neumaier's
variant of Kahan summation); 3.11 and earlier fold left to right.  Every
float total that feeds simulated time is an explicit left fold, so each
supported interpreter computes the same seconds.  These tests replace
``builtins.sum`` with a copy of the compensated loop and require the
same event-log fingerprints as under the builtin: an elastic drive at
about three times capacity, a fault drive and the Fig. 5 hybrid.
"""

import builtins
import math

from fingerprint import Fingerprint, call_key
from repro import ExecutionConfig, QoS
from repro.engine.faults import DeviceLossFault, FaultPlan, RetryPolicy
from repro.engine.tenancy import Tenant
from repro.hardware.resources import BandwidthJob, BandwidthResource
from repro.hardware.sim import Simulator
from repro.ssb import SSB_QUERY_IDS, ssb_query
from repro.ssb.harness import HarnessSettings, _proteus, run_fig5
from scenario import Arrival, OpenLoop, Scenario, Tables, run_scenario, ssb_tables

BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of CPython 3.12+ over ints and floats: ints add
    exactly until the first float, then floats add with a running
    compensation, applied once at the end.  Anything else is summed by
    the builtin."""
    items = list(iterable)
    if any(type(x) not in (int, float) for x in (start, *items)):
        return BUILTIN_SUM(items, start)
    total, rest = start, iter(items)
    if type(total) is int:
        for x in rest:
            total += x
            if type(x) is float:
                break
    if type(total) is int:
        return total
    compensation = 0.0
    for x in rest:
        t = total + x
        if type(x) is float:
            if abs(total) >= abs(x):
                compensation += (total - t) + x
            else:
                compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_the_emulation_compensates():
    values = [0.1] * 10
    left_fold = 0.0
    for value in values:
        left_fold += value
    assert left_fold == 0.9999999999999999
    assert compensated_sum(values) == 1.0
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([]) == 0


CPU4 = ExecutionConfig.cpu_only(4, block_tuples=256)
HYBRID4 = ExecutionConfig.hybrid(4, [0, 1], block_tuples=256)
#: an elastic two-tenant server at about 3x its capacity, shaped like the
#: ``serve_overload`` workload: deep queue, DRR, backfill and preemption
OVERLOAD = Scenario(
    (
        OpenLoop(("Q1.1", "Q1.2", "Q1.3"), CPU4, 900.0, 12, seed=1, name="acme",
                 qos=QoS.interactive(deadline_seconds=0.05), tenant="acme"),
        OpenLoop(("Q2.1", "Q3.1", "Q4.1", "Q4.2"), HYBRID4, 300.0, 4, seed=2,
                 name="bulk", qos=QoS.batch(), tenant="bulk"),
    ),
    {
        "max_concurrent": 4,
        "admission": "sla",
        "tenants": (Tenant("acme", weight=2), Tenant("bulk", compute_quota=0.5)),
        "max_queue_depth": 256,
        "compile_seconds": 0.0,  # the workload's server is warm
        "elastic": True,
        "max_dop": 8,
    },
    tables=Tables(scale_factor=0.0005),
)
#: three device configurations under a GPU loss and retries: the compile
#: seconds a session is charged total several stage prices
_CONFIGS = (
    ExecutionConfig.cpu_only(6, block_tuples=4096),
    ExecutionConfig.gpu_only([0, 1], block_tuples=4096),
    ExecutionConfig.hybrid(4, [0, 1], block_tuples=4096),
)
FAULT = Scenario(
    tuple(Arrival(q, _CONFIGS[i % 3], name=q) for i, q in enumerate(SSB_QUERY_IDS[:6])),
    {
        "max_concurrent": 4,
        "fault_plan": FaultPlan(device_losses=(DeviceLossFault(0, 5e-4),)),
        "retry_policy": RetryPolicy(),
    },
)
#: the benchmarks' Fig. 5 settings
FIG5 = HarnessSettings(physical_sf=0.01, block_tuples=256, segment_rows=2048)


def test_a_drive_reads_the_same_under_a_compensated_sum(monkeypatch):
    drives = (OVERLOAD, FAULT)
    builtin = [run_scenario(drive).fingerprint for drive in drives]
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert [run_scenario(drive).fingerprint for drive in drives] == builtin


def test_the_fig5_hybrid_reads_the_same_under_a_compensated_sum(monkeypatch):
    """Its entry is the one the Fig. 5 harness drive checks under the
    builtin ``sum``."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    engine = _proteus(FIG5, ssb_tables(FIG5.physical_sf, FIG5.seed), 1000.0)
    with Fingerprint() as fingerprint:
        for query in SSB_QUERY_IDS:
            engine.query(ssb_query(query), FIG5.config("hybrid"))
    fingerprint.check(f"{call_key(run_fig5, FIG5)}/Proteus Hybrid")


def test_water_filling_rates_are_the_same_under_a_compensated_sum(monkeypatch):
    # Fractional weights, as no engine drive submits: their total is
    # where a compensated sum would round differently.
    weights = (0.3, 7.5, 0.1, 0.3, 2.0, 0.7)
    caps = (None, 1e9, None, 5e8, None, None)

    def rates():
        sim = Simulator()
        bus = BandwidthResource(sim, capacity=3e10)
        bus._jobs = [
            BandwidthJob(1.0, cap, sim.event(), "", weight)
            for cap, weight in zip(caps, weights)
        ]
        bus._allocate()
        return [job.rate for job in bus._jobs]

    builtin = rates()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert rates() == builtin
