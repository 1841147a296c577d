"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30.0, lambda: fired.append("c"))
    sim.schedule(10.0, lambda: fired.append("a"))
    sim.schedule(20.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30.0


def test_equal_times_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(7.0, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(5.0, lambda: fired.append(("inner", sim.now)))

    sim.schedule(10.0, outer)
    sim.run()
    assert fired == [("outer", 10.0), ("inner", 15.0)]


def test_zero_delay_event_fires_at_now():
    sim = Simulator()
    seen = []
    sim.schedule(0.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule_event(5.0, lambda: fired.append(1))
    sim.schedule(3.0, ev.cancel)
    sim.run()
    assert fired == []
    assert not ev.alive


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule_event(5.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    ev = sim.schedule_event(5.0, lambda: fired.append(1))
    sim.run()
    assert fired == [1]
    assert not ev.alive
    ev.cancel()  # must not disturb anything
    sim.schedule(1.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2]


def test_pending_counts_live_events():
    sim = Simulator()
    ev = sim.schedule_event(5.0, lambda: None)
    sim.schedule(6.0, lambda: None)
    assert sim.pending == 2
    ev.cancel()
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append("early"))
    sim.schedule(100.0, lambda: fired.append("late"))
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()  # resume to completion
    assert fired == ["early", "late"]


def test_run_until_beyond_all_events_advances_clock():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=99.0)
    assert sim.now == 99.0


def test_max_events_guard_raises():
    sim = Simulator()

    def respawn():
        sim.schedule(0.0, respawn)

    sim.schedule(0.0, respawn)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_fired == 4


def test_run_not_reentrant():
    sim = Simulator()
    err = {}

    def inner():
        try:
            sim.run()
        except SimulationError as exc:
            err["e"] = exc

    sim.schedule(1.0, inner)
    sim.run()
    assert "e" in err


def test_drain_cancelled_compacts_heap():
    sim = Simulator()
    events = [sim.schedule_event(float(i + 1), lambda: None) for i in range(10)]
    for ev in events[:9]:
        ev.cancel()
    sim.drain_cancelled()
    sim.run()
    assert sim.now == 10.0


# ------------------------------------- same-instant order, inline advance


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_delay_rejected(bad):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(bad, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_event(bad, lambda: None)


def test_schedule_event_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_event(-2.0, lambda: None)


def test_call_soon_interleaves_with_schedule_by_seq():
    """Zero-delay entries fire in scheduling order whichever call queued
    them."""
    sim = Simulator()
    fired = []
    sim.schedule(0.0, lambda: fired.append("a"))
    sim.schedule_event(0.0, lambda: fired.append("b"))
    sim.schedule(0.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_lane_merges_with_due_heap_events():
    """A callback posting zero-delay work does not overtake due events
    scheduled earlier for the same instant."""
    sim = Simulator()
    fired = []

    def at_ten():
        fired.append("heap1")
        sim.schedule(0.0, lambda: fired.append("soon"))

    sim.schedule(10.0, at_ten)
    sim.schedule(10.0, lambda: fired.append("heap2"))
    sim.run()
    # heap2 (seq 2) precedes the zero-delay entry posted at t=10 (seq 3)
    assert fired == ["heap1", "heap2", "soon"]


def test_auto_drain_compacts_bloated_heap():
    from repro.sim.engine import DRAIN_MIN_CANCELLED

    sim = Simulator()
    n = DRAIN_MIN_CANCELLED * 2
    events = [sim.schedule_event(float(i + 1), lambda: None) for i in range(n)]
    survivors = 10
    for ev in events[survivors:]:
        ev.cancel()
    # cancelled entries exceeded half the heap -> compacted automatically
    assert len(sim._heap) < n // 2
    assert sim.pending == survivors
    sim.run()
    assert sim.now == float(survivors)


def test_fastpath_stats_accounting():
    sim = Simulator()
    sim.schedule(5.0, lambda: sim.advance_inline(1.0))
    sim.schedule(0.0, lambda: None)
    sim.schedule(0.0, lambda: None)
    sim.run()
    stats = sim.fastpath_stats()
    assert stats["events_fired"] == 4
    assert stats["heap_fired"] == 3
    assert stats["inline_advances"] == 1


def test_slow_path_routes_everything_through_heap():
    sim = Simulator(fast_path=False)
    fired = []
    sim.schedule(0.0, lambda: fired.append("a"))
    sim.schedule(0.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("c"))
    sim.run()
    assert not sim.advance_inline(0.5)  # even with an empty queue
    assert fired == ["a", "b", "c"]
    assert sim.fastpath_stats()["inline_advances"] == 0


def test_advance_inline_refuses_when_event_in_window():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    assert not sim.advance_inline(5.0)  # head exactly at the boundary
    assert sim.advance_inline(4.0)
    assert sim.now == 4.0
    assert sim.events_fired == 1  # stands in for the skipped resume event


def test_advance_inline_refuses_with_lane_pending():
    """A same-instant event still queued is inside every window."""
    sim = Simulator()
    sim.schedule(0.0, lambda: None)
    assert not sim.advance_inline(1.0)


def test_advance_inline_ignores_cancelled_head():
    sim = Simulator()
    ev = sim.schedule_event(2.0, lambda: None)
    ev.cancel()
    assert sim.advance_inline(10.0)
    assert sim.now == 10.0


def test_step_merges_lane_and_heap():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("later"))
    sim.schedule(0.0, lambda: fired.append("now"))
    assert sim.step() is True
    assert fired == ["now"]
    assert sim.step() is True
    assert fired == ["now", "later"]
    assert sim.step() is False


def test_max_events_counts_inline_advances():
    """Charge fusion must not dodge the runaway guard: inline advances
    consume max_events budget exactly like the resume events they replace."""
    sim = Simulator()
    state = {"n": 0}

    def spin():
        state["n"] += 1
        if not sim.advance_inline(1.0):
            sim.schedule(1.0, spin)
            return
        spin()

    sim.schedule(1.0, spin)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=50)
    assert state["n"] <= 51
