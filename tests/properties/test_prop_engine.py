"""Property tests: the discrete-event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


@given(delays)
def test_events_fire_in_nondecreasing_time_order(ds):
    sim = Simulator()
    fired_times = []
    for d in ds:
        sim.schedule(d, lambda: fired_times.append(sim.now))
    sim.run()
    assert fired_times == sorted(fired_times)
    assert len(fired_times) == len(ds)


@given(delays)
def test_clock_never_goes_backwards_with_nesting(ds):
    sim = Simulator()
    observed = []

    def chain(remaining):
        observed.append(sim.now)
        if remaining:
            sim.schedule(remaining[0], lambda: chain(remaining[1:]))

    sim.schedule(0.0, lambda: chain(list(ds)))
    sim.run()
    assert observed == sorted(observed)


@given(delays, st.data())
def test_cancelled_subset_never_fires(ds, data):
    sim = Simulator()
    fired = []
    events = [
        sim.schedule_event(d, lambda i=i: fired.append(i)) for i, d in enumerate(ds)
    ]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(ds) - 1))
    )
    for i in to_cancel:
        events[i].cancel()
    sim.run()
    assert set(fired) == set(range(len(ds))) - to_cancel


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
def test_fifo_among_equal_timestamps(groups):
    """Events at identical times fire in scheduling order."""
    sim = Simulator()
    fired = []
    for seq, t in enumerate(groups):
        sim.schedule(float(t), lambda s=seq, tt=t: fired.append((tt, s)))
    sim.run()
    assert fired == sorted(fired)


actions = st.lists(
    st.tuples(
        st.sampled_from(["delay", "zero", "event_zero", "cancelled", "inline"]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)


horizons = st.lists(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False),
    max_size=4,
).map(sorted)
budgets = st.one_of(st.none(), st.integers(min_value=1, max_value=80))


@settings(max_examples=60)
@given(actions, delays, horizons, budgets)
def test_fast_and_slow_engines_fire_identically(acts, seed_delays, untils, max_events):
    """Inline advances are bit-identical to the heap-only engine on
    arbitrary mixes of scheduling styles, run in ``until`` chunks and under
    a ``max_events`` budget: the runaway error, when the budget is hit,
    falls after the same fired list at the same instant."""

    def drive(fast_path):
        sim = Simulator(fast_path=fast_path)
        fired = []

        def react(i, kind, amount):
            def fire():
                fired.append((i, kind, sim.now))
                if kind == "zero":
                    sim.schedule(0.0, lambda: fired.append((i, "nested", sim.now)))
                elif kind == "event_zero":
                    sim.schedule_event(0.0, lambda: fired.append((i, "nested", sim.now)))
                elif kind == "inline":
                    # mirrors the trampoline's charge fusion: advance the
                    # clock and continue inline when possible, otherwise do
                    # the same work from a real resume event
                    wait = max(amount, 0.5)
                    if sim.advance_inline(wait):
                        fired.append((i, "resumed", sim.now))
                    else:
                        sim.schedule(wait, lambda: fired.append((i, "resumed", sim.now)))

            return fire

        for i, d in enumerate(seed_delays):
            sim.schedule(d, lambda i=i: fired.append((i, "seed", sim.now)))
        for i, (kind, amount) in enumerate(acts):
            if kind == "cancelled":
                ev = sim.schedule_event(amount + 1.0, lambda: fired.append("never"))
                ev.cancel()
            else:
                sim.schedule(amount, react(i, kind, amount))
        error = None
        try:
            for until in untils:
                sim.run(until=until, max_events=max_events)
            sim.run(max_events=max_events)
        except SimulationError as exc:
            error = str(exc)
        return fired, sim.now, sim.events_fired, error

    assert drive(True) == drive(False)


@settings(max_examples=25)
@given(delays)
def test_run_until_is_resumable_and_equivalent(ds):
    """Chunked runs produce the same final state as one run."""
    one = Simulator()
    fired_one = []
    for d in ds:
        one.schedule(d, lambda d=d: fired_one.append(d))
    one.run()

    two = Simulator()
    fired_two = []
    for d in ds:
        two.schedule(d, lambda d=d: fired_two.append(d))
    horizon = max(ds) / 2
    two.run(until=horizon)
    two.run()
    assert fired_one == fired_two
    assert one.now == two.now
