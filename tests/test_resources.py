"""Unit tests for FIFO and processor-sharing bandwidth resources."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.resources import BandwidthJob, BandwidthResource, FifoResource
from repro.hardware.sim import SimulationError, Simulator


class TestFifoResource:
    def test_exclusive_service(self):
        sim = Simulator()
        resource = FifoResource(sim, "core")
        order = []

        def worker(tag, hold):
            grant = resource.acquire()
            yield grant
            order.append((tag, sim.now))
            yield sim.timeout(hold)
            resource.release()

        sim.process(worker("a", 2))
        sim.process(worker("b", 1))
        sim.run()
        assert order == [("a", 0), ("b", 2)]

    def test_release_idle_raises(self):
        sim = Simulator()
        resource = FifoResource(sim, "core")
        with pytest.raises(SimulationError):
            resource.release()

    def test_multi_slot(self):
        sim = Simulator()
        resource = FifoResource(sim, "pool", slots=2)
        starts = []

        def worker(tag):
            yield resource.acquire()
            starts.append((tag, sim.now))
            yield sim.timeout(1)
            resource.release()

        for tag in "abc":
            sim.process(worker(tag))
        sim.run()
        assert starts == [("a", 0), ("b", 0), ("c", 1)]

    def test_busy_time_accounting(self):
        sim = Simulator()
        resource = FifoResource(sim, "core")

        def worker():
            yield resource.acquire()
            yield sim.timeout(3)
            resource.release()

        sim.process(worker())
        sim.run()
        assert resource.total_busy_time == pytest.approx(3)
        assert resource.busy_time == pytest.approx(3)

    def test_busy_time_includes_open_interval_mid_run(self):
        """``total_busy_time`` folds only when the last holder releases;
        a mid-run sample (a scheduler's utilization probe at a phase
        boundary) must still see the in-flight interval."""
        sim = Simulator()
        resource = FifoResource(sim, "core")
        samples = []

        def worker():
            yield resource.acquire()
            yield sim.timeout(2)
            # mid-hold: the raw counter is still zero, busy_time is not
            samples.append((resource.total_busy_time, resource.busy_time))
            yield sim.timeout(1)
            resource.release()

        sim.process(worker())
        sim.run()
        assert samples == [(0.0, pytest.approx(2.0))]
        assert resource.busy_time == pytest.approx(3.0)

    def test_busy_time_counts_overlapping_holds_once(self):
        """Two holders on a multi-slot resource: busy time is wall-clock
        'at least one slot held', not the sum of the holds."""
        sim = Simulator()
        resource = FifoResource(sim, "pool", slots=2)

        def worker(start, hold):
            yield sim.timeout(start)
            yield resource.acquire()
            yield sim.timeout(hold)
            resource.release()

        sim.process(worker(0, 3))
        sim.process(worker(1, 4))  # overlaps 1..3, extends to 5
        sim.run()
        assert resource.busy_time == pytest.approx(5.0)

    def test_utilization_over_horizon(self):
        sim = Simulator()
        resource = FifoResource(sim, "core")

        def worker():
            yield sim.timeout(1)
            yield resource.acquire()
            yield sim.timeout(3)
            resource.release()

        sim.process(worker())
        sim.run()
        assert resource.busy_time / 4.0 == pytest.approx(0.75)


class TestBandwidthResource:
    def test_single_job_runs_at_cap(self):
        sim = Simulator()
        bus = BandwidthResource(sim, capacity=100.0)

        def proc():
            yield bus.submit(50.0, rate_cap=10.0)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(5.0)

    def test_uncapped_job_uses_full_capacity(self):
        sim = Simulator()
        bus = BandwidthResource(sim, capacity=100.0)

        def proc():
            yield bus.submit(200.0)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(2.0)

    def test_two_jobs_share_fairly(self):
        sim = Simulator()
        bus = BandwidthResource(sim, capacity=100.0)
        finishes = {}

        def proc(tag, work):
            yield bus.submit(work)
            finishes[tag] = sim.now

        sim.process(proc("a", 100.0))
        sim.process(proc("b", 100.0))
        sim.run()
        # both run at 50 until one finishes; equal work -> equal finish
        assert finishes["a"] == pytest.approx(2.0)
        assert finishes["b"] == pytest.approx(2.0)

    def test_capped_job_leaves_capacity_for_others(self):
        sim = Simulator()
        bus = BandwidthResource(sim, capacity=100.0)
        finishes = {}

        def proc(tag, work, cap):
            yield bus.submit(work, rate_cap=cap)
            finishes[tag] = sim.now

        sim.process(proc("capped", 10.0, 10.0))   # rate 10 -> done at 1.0
        sim.process(proc("greedy", 90.0, None))   # rate 90 -> done at 1.0
        sim.run()
        assert finishes["capped"] == pytest.approx(1.0)
        assert finishes["greedy"] == pytest.approx(1.0)

    def test_weighted_share(self):
        sim = Simulator()
        bus = BandwidthResource(sim, capacity=90.0)
        finishes = {}

        def proc(tag, work, weight):
            yield bus.submit(work, weight=weight)
            finishes[tag] = sim.now

        # weight 2 gets 60, weight 1 gets 30 (until the first finishes)
        sim.process(proc("heavy", 60.0, 2.0))
        sim.process(proc("light", 30.0, 1.0))
        sim.run()
        assert finishes["heavy"] == pytest.approx(1.0)
        assert finishes["light"] == pytest.approx(1.0)

    def test_late_arrival_reallocates(self):
        sim = Simulator()
        bus = BandwidthResource(sim, capacity=100.0)
        finishes = {}

        def first():
            yield bus.submit(100.0)
            finishes["first"] = sim.now

        def second():
            yield sim.timeout(0.5)  # first has served 50 by now
            yield bus.submit(25.0)
            finishes["second"] = sim.now

        sim.process(first())
        sim.process(second())
        sim.run()
        # from t=0.5 both run at 50: second finishes at 1.0, then first
        # finishes its remaining 25 at rate 100 -> 1.25
        assert finishes["second"] == pytest.approx(1.0)
        assert finishes["first"] == pytest.approx(1.25)

    def test_zero_work_completes_immediately(self):
        sim = Simulator()
        bus = BandwidthResource(sim, capacity=10.0)
        event = bus.submit(0.0)
        sim.run()
        assert event.triggered

    def test_invalid_arguments(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            BandwidthResource(sim, capacity=0)
        bus = BandwidthResource(sim, capacity=10.0)
        with pytest.raises(SimulationError):
            bus.submit(-1.0)
        with pytest.raises(SimulationError):
            bus.submit(1.0, rate_cap=0)
        with pytest.raises(SimulationError):
            bus.submit(1.0, weight=0)

    def test_busy_time_tracks_active_periods(self):
        sim = Simulator()
        bus = BandwidthResource(sim, capacity=10.0)

        def proc():
            yield bus.submit(10.0)           # busy 0..1
            yield sim.timeout(5)             # idle 1..6
            yield bus.submit(20.0)           # busy 6..8
            return bus.busy_time

        assert sim.run_process(proc()) == pytest.approx(3.0)

    def test_reads_are_pure(self):
        """Reading ``busy_time`` and ``total_work_served`` every 1e-4 s
        of a drive moves no completion time and no served total, to the
        bit: a read adds the open interval, it never folds it in."""

        def drive(watched):
            sim = Simulator()
            bus = BandwidthResource(sim, capacity=97.3)
            finishes = []

            def job(start, work, cap, weight):
                yield sim.timeout(start)
                yield bus.submit(work, rate_cap=cap, weight=weight)
                finishes.append(sim.now)

            def watcher():
                while sim._heap:  # anything left but this watcher?
                    bus.busy_time, bus.total_work_served
                    yield sim.timeout(1e-4)

            for args in (
                (0.0, 13.7, None, 1.0),
                (1.3e-3, 7.1, 9.3, 3.0),
                (2.1e-3, 5.3, 31.0, 1.0),
                (5e-3, 11.9, None, 2.0),
                (1e-2, 3.3, 4.1, 1.0),
            ):
                sim.process(job(*args))
            if watched:
                sim.process(watcher())
            sim.run()
            return finishes, bus.total_work_served

        assert drive(watched=True) == drive(watched=False)


def test_names_are_formatted_when_read():
    sim = Simulator()
    core = FifoResource(sim, name="core0")
    bus = BandwidthResource(sim, capacity=10.0, name="pcie:0")
    assert repr(core.acquire()) == "<acquire:core0 triggered>"
    assert repr(core.acquire()) == "<acquire:core0 pending>"
    assert repr(bus.submit(5.0, label="uva")) == "<bw:pcie:0:uva pending>"
    # call sites hand over the parts of a label, nested parts included
    job = bus.submit(5.0, label=("{}-host", ("dma:{}", 7)))
    assert repr(job) == "<bw:pcie:0:dma:7-host pending>"


def _reference_rates(capacity, jobs):
    """Water-filling as first written (three lists a round): the
    arithmetic _allocate must reproduce to the last bit.  The weight
    total is a left fold, as in _allocate, on every Python version."""
    rates = {}
    pending = list(jobs)
    remaining_capacity = capacity
    while pending:
        total_weight = 0.0
        for job in pending:
            total_weight += job.weight
        per_weight = remaining_capacity / total_weight
        capped = [
            j for j in pending
            if j.rate_cap is not None and j.rate_cap < j.weight * per_weight
        ]
        if not capped:
            for job in pending:
                rates[id(job)] = job.weight * per_weight
            break
        for job in capped:
            rates[id(job)] = job.rate_cap
            remaining_capacity -= job.rate_cap
            pending.remove(job)
    return [rates[id(job)] for job in jobs]


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.floats(min_value=1.0, max_value=1e11),
    jobs=st.lists(
        st.tuples(
            st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e11)),
            st.sampled_from([1.0, 2.0, 0.3, 7.5]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_allocation_is_bit_identical_to_the_reference(capacity, jobs):
    sim = Simulator()
    bus = BandwidthResource(sim, capacity=capacity)
    bus._jobs = [
        BandwidthJob(1.0, cap, sim.event(), "", weight) for cap, weight in jobs
    ]
    bus._allocate()
    assert [job.rate for job in bus._jobs] == _reference_rates(capacity, bus._jobs)


@settings(max_examples=40, deadline=None)
@given(
    works=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=10),
    capacity=st.floats(min_value=1.0, max_value=1e3),
)
def test_conservation_total_time_bounded_by_work_over_capacity(works, capacity):
    """Makespan >= total work / capacity and >= the longest single job at
    its own share; all jobs complete."""
    sim = Simulator()
    bus = BandwidthResource(sim, capacity=capacity)
    done = []

    def proc(work):
        yield bus.submit(work)
        done.append(sim.now)

    for work in works:
        sim.process(proc(work))
    sim.run()
    assert len(done) == len(works)
    lower_bound = sum(works) / capacity
    assert sim.now >= lower_bound * (1 - 1e-9)
    assert bus.total_work_served == pytest.approx(sum(works), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    works=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=8),
    caps=st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=8),
)
def test_rate_caps_respected(works, caps):
    """No job finishes faster than work / its own cap."""
    sim = Simulator()
    bus = BandwidthResource(sim, capacity=1e3)
    finishes = {}
    pairs = list(zip(works, caps))

    def proc(index, work, cap):
        start = sim.now
        yield bus.submit(work, rate_cap=cap)
        finishes[index] = sim.now - start

    for index, (work, cap) in enumerate(pairs):
        sim.process(proc(index, work, cap))
    sim.run()
    for index, (work, cap) in enumerate(pairs):
        assert finishes[index] >= work / cap * (1 - 1e-9)
