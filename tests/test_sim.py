"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
    Store,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc()) == 2.5
    assert sim.now == 2.5


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_timeout_rejects_nan_delay():
    sim = Simulator()
    with pytest.raises(SimulationError, match="nan"):
        sim.timeout(float("nan"))
    assert not sim._heap


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return "done"

    assert sim.run_process(proc()) == "done"


def test_nested_processes_compose():
    sim = Simulator()

    def child(delay):
        yield sim.timeout(delay)
        return delay * 2

    def parent():
        first = yield sim.process(child(1.0))
        second = yield sim.process(child(0.5))
        return first + second

    assert sim.run_process(parent()) == 3.0
    assert sim.now == 1.5


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_instant_entries_are_ordered_by_sequence_alone():
    """A heap entry is (time, seq, arg, fn); an Event, None, an Interrupt
    and bound methods share one instant here and none of them is
    orderable, so a tie that fell through to the payload would raise."""
    sim = Simulator()
    order = []

    def sleeper():
        try:
            yield sim.timeout(5)
        except Interrupt:
            order.append("interrupt")

    def starter(tag):
        order.append(tag)
        yield sim.timeout(0)

    sleeping = sim.process(sleeper())
    sim.run(until=1)
    first = sim.event()
    first.add_callback(lambda event: order.append("first"))
    first.trigger()                        # (now, seq, event, None)
    sim.process(starter("start"))          # (now, seq, None, bound method)
    sleeping.interrupt()                   # (now, seq, Interrupt, bound method)
    second = sim.event()
    second.add_callback(lambda event: order.append("second"))
    second.fail(ValueError("boom"))
    sim.run(until=1)
    assert order == ["first", "start", "interrupt", "second"]
    # a callback added after the event was processed is its own entry
    first.add_callback(lambda event: order.append("after"))
    sim.run(until=1)
    assert order[4:] == ["after"]


def test_event_triggered_inside_a_callback_fires_after_the_instants_queue():
    sim = Simulator()
    order = []
    inner = sim.event()
    inner.add_callback(lambda event: order.append("inner"))
    outer = sim.event()
    outer.add_callback(lambda event: (order.append("outer"), inner.trigger()))
    outer.trigger()
    for tag in ("a", "b"):
        queued = sim.event()
        queued.add_callback(lambda event, tag=tag: order.append(tag))
        queued.trigger()
    pushes = sim._seq
    sim.run()
    assert order == ["outer", "a", "b", "inner"]
    assert sim.now == 0.0 and sim._seq == pushes + 1


def test_entry_scheduled_in_the_past_is_refused():
    sim = Simulator()
    sim.run_process(iter_timeouts(sim, [2]))
    sim._schedule_call(print, "never", delay=-1.0)
    with pytest.raises(SimulationError, match="in the past"):
        sim.run()


def test_names_are_formatted_when_read():
    """repr() shows what it always showed; nothing is formatted before."""
    sim = Simulator()
    store = sim.store(capacity=1, name="q")
    assert repr(sim.timeout(2.5)) == "<Timeout(2.5) triggered>"
    assert repr(sim.timeout(1e-07)) == "<Timeout(1e-07) triggered>"
    assert repr(store.get()) == "<get:q pending>"
    assert repr(store.put(1)) == "<put:q triggered>"
    assert repr(sim.event()) == "<Event pending>"
    assert repr(sim.event(("{}:credit", "router-7"))) == "<router-7:credit pending>"

    def worker():
        yield sim.timeout(1)

    assert sim.process(worker()).name == "worker"
    assert sim.process(worker(), name=("memmove:{}", 12)).name == "memmove:12"


def test_event_trigger_and_value():
    sim = Simulator()
    event = sim.event("flag")

    def waiter():
        value = yield event
        return value

    def setter():
        yield sim.timeout(3)
        event.trigger(42)

    proc = sim.process(waiter())
    sim.process(setter())
    sim.run()
    assert proc.value == 42
    assert sim.now == 3


def test_event_double_trigger_raises():
    sim = Simulator()
    event = sim.event()
    event.trigger(1)
    with pytest.raises(SimulationError):
        event.trigger(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    event = sim.event()

    def waiter():
        try:
            yield event
        except ValueError as err:
            return f"caught {err}"

    proc = sim.process(waiter())
    event.fail(ValueError("boom"))
    sim.run()
    assert proc.value == "caught boom"


def test_uncaught_process_exception_propagates_via_run_process():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("kaput")

    with pytest.raises(RuntimeError, match="kaput"):
        sim.run_process(bad())


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def proc():
        events = [sim.timeout(3, value="slow"), sim.timeout(1, value="fast")]
        values = yield sim.all_of(events)
        return values

    assert sim.run_process(proc()) == ["slow", "fast"]
    assert sim.now == 3


def test_any_of_returns_first():
    sim = Simulator()

    def proc():
        value = yield sim.any_of([sim.timeout(3, "slow"), sim.timeout(1, "fast")])
        return value

    assert sim.run_process(proc()) == "fast"


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    event = AllOf(sim, [])
    sim.run()
    assert event.triggered and event.value == []


def test_any_of_empty_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_interrupt_is_delivered():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            return (f"interrupted: {interrupt.cause}", sim.now)

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(1)
        proc.interrupt("wake up")

    sim.process(interrupter())
    sim.run()
    # the stale timeout still drains the heap at t=100, but the process
    # itself resumed (and finished) at the interrupt instant
    assert proc.value == ("interrupted: wake up", 1)


def test_run_until_stops_clock():
    sim = Simulator()
    sim.process(iter_timeouts(sim, [1, 2, 3]))
    sim.run(until=1.5)
    assert sim.now == 1.5


def test_run_until_never_moves_the_clock_back():
    sim = Simulator()
    sim.process(iter_timeouts(sim, [5.0, 1.0]))
    sim.run(until=5.0)
    assert sim.now == 5.0
    for until in (3, float("nan")):
        with pytest.raises(SimulationError, match="clock back"):
            sim.run(until=until)
        assert sim.now == 5.0
    sim.run(until=6)  # an int horizon still leaves a float clock
    assert sim.now == 6.0 and isinstance(sim.now, float)


def iter_timeouts(sim, delays):
    for delay in delays:
        yield sim.timeout(delay)


class TestStore:
    def test_fifo_order(self):
        sim = Simulator()
        store = sim.store()

        def producer():
            for i in range(5):
                yield store.put(i)

        def consumer():
            out = []
            for _ in range(5):
                item = yield store.get()
                out.append(item)
            return out

        sim.process(producer())
        proc = sim.process(consumer())
        sim.run()
        assert proc.value == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = sim.store()

        def consumer():
            item = yield store.get()
            return (item, sim.now)

        def producer():
            yield sim.timeout(5)
            yield store.put("x")

        proc = sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert proc.value == ("x", 5)

    def test_capacity_blocks_put(self):
        sim = Simulator()
        store = sim.store(capacity=1)
        times = []

        def producer():
            yield store.put(1)
            times.append(sim.now)
            yield store.put(2)  # blocks until the consumer takes item 1
            times.append(sim.now)

        def consumer():
            yield sim.timeout(7)
            yield store.get()
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert times == [0, 7]

    def test_close_delivers_end_sentinel(self):
        sim = Simulator()
        store = sim.store()

        def consumer():
            first = yield store.get()
            second = yield store.get()
            return (first, second)

        proc = sim.process(consumer())
        store.put("only")
        store.close()
        sim.run()
        assert proc.value == ("only", Store.END)

    def test_close_drains_buffered_items_first(self):
        sim = Simulator()
        store = sim.store()
        store.put(1)
        store.put(2)
        store.close()

        def consumer():
            items = []
            while True:
                item = yield store.get()
                if item is Store.END:
                    return items
                items.append(item)

        assert sim.run_process(consumer()) == [1, 2]

    def test_put_after_close_raises(self):
        sim = Simulator()
        store = sim.store()
        store.close()
        with pytest.raises(SimulationError):
            store.put(1)

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.store(capacity=0)


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.001, max_value=100), min_size=1,
                       max_size=20))
def test_clock_is_monotone_and_ends_at_max_delay(delays):
    sim = Simulator()
    seen = []

    def proc(delay):
        yield sim.timeout(delay)
        seen.append(sim.now)

    for delay in delays:
        sim.process(proc(delay))
    sim.run()
    assert seen == sorted(seen)
    assert sim.now == pytest.approx(max(delays))


@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.integers(), min_size=0, max_size=50),
       capacity=st.integers(min_value=1, max_value=8))
def test_store_preserves_items_through_bounded_queue(items, capacity):
    sim = Simulator()
    store = sim.store(capacity=capacity)

    def producer():
        for item in items:
            yield store.put(item)
        store.close()

    def consumer():
        out = []
        while True:
            item = yield store.get()
            if item is Store.END:
                return out
            out.append(item)

    sim.process(producer())
    proc = sim.process(consumer())
    sim.run()
    assert proc.value == items
