"""Simulated time does not depend on the interpreter's float ``sum``.

CPython 3.12 made the builtin ``sum`` of floats compensated (Neumaier's
variant of Kahan summation); 3.11 and earlier fold left to right.  Every
float total that feeds simulated time is an explicit left fold, so each
supported interpreter computes the same seconds.  These tests replace
``builtins.sum`` with a copy of the compensated loop and require the
same results as under the builtin.
"""

import builtins
import math

from repro import ExecutionConfig
from repro.hardware.resources import BandwidthJob, BandwidthResource
from repro.hardware.sim import Simulator
from repro.ssb import SSB_QUERY_IDS
from scenario import Arrival, Scenario, run_scenario

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


#: six SSB queries, four at a time, each under the next of three device
#: configurations: the compile seconds a session is charged total several
#: stage prices, which a compensated sum rounds differently (the
#: makespan moved in its last bit while that total was a builtin sum)
_CONFIGS = (
    ExecutionConfig.cpu_only(6, block_tuples=4096),
    ExecutionConfig.gpu_only([0, 1], block_tuples=4096),
    ExecutionConfig.hybrid(4, [0, 1], block_tuples=4096),
)
_DRIVE = Scenario(
    tuple(
        Arrival(query, _CONFIGS[index % len(_CONFIGS)], name=query)
        for index, query in enumerate(SSB_QUERY_IDS[:6])
    ),
    {"max_concurrent": 4},
)


def test_a_drive_reads_the_same_under_a_compensated_sum(monkeypatch):
    builtin = run_scenario(_DRIVE).signature()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert run_scenario(_DRIVE).signature() == builtin


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
