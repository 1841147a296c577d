"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock (float microseconds) and one
binary heap of scheduled callbacks, consumed by one run loop.  Events
scheduled for the same instant fire in scheduling order (monotone sequence
numbers break ties), which makes the whole machine deterministic — a
property the test suite checks directly.

Event representation
--------------------

A queued event is a plain 3-element list ``[time, seq, fn]``.  Lists compare
element-wise at C speed, so ``heapq`` ordering never re-enters the
interpreter, and building one costs a fraction of a class instance — the
engine fires tens of thousands of events per simulated benchmark iteration,
so this is the difference between the heap round-trip and the model logic
dominating wall-clock time.  ``fn is None`` marks a cancelled (or already
fired) entry; lazy deletion skips it on pop.

:meth:`Simulator.schedule` is fire-and-forget and returns nothing.  Code
that needs to cancel uses :meth:`Simulator.schedule_event`, which wraps the
entry in a real :class:`Event` handle — the rare case pays for the handle,
the common case allocates one short-lived list.

Inline advance
--------------

:meth:`Simulator.advance_inline` is the one way around the heap: it lets a
caller (the thread scheduler, for a ``Charge``) move the clock forward
*without* an event at all, provided no pending event (and no ``until``
bound) falls inside the window.  It mirrors the sequence-number and
``events_fired`` bookkeeping of the schedule-then-fire round trip it
replaces, so a run is bit-identical either way.  ``Simulator(fast_path=
False)`` makes it refuse every time — the heap-only reference engine the
golden-trace and property tests compare against.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heapify, heappop, heappush

from repro.errors import SimulationError

__all__ = ["Event", "Simulator", "Watchdog"]

_INF = float("inf")

#: auto-compaction floor: drain_cancelled() triggers only once at least
#: this many cancelled entries sit in the heap (and they exceed half of it)
DRAIN_MIN_CANCELLED = 64


def _bad_delay(delay: float) -> SimulationError:
    if delay != delay or delay == _INF:
        return SimulationError(f"cannot schedule a {delay} us delay")
    return SimulationError(f"cannot schedule {delay} us in the past")


class Event:
    """Cancellation handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule_event`; wraps the queued
    ``[time, seq, fn]`` entry.  :meth:`cancel` marks the entry dead in
    place (lazy deletion — it stays in the heap but is skipped when
    popped, and bulk cancellation triggers automatic compaction).
    """

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "Simulator"):
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    @property
    def alive(self) -> bool:
        """True until the event fires or is cancelled."""
        return self._entry[2] is not None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; a no-op once the
        event has fired."""
        entry = self._entry
        if entry[2] is None:
            return
        entry[2] = None
        sim = self._sim
        self._sim = None
        if sim is not None:
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._entry[2] is not None else "dead"
        return f"<Event t={self._entry[0]:.3f} seq={self._entry[1]} {state}>"


class Simulator:
    """Virtual-time event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("fires at t=10us"))
        sim.run()

    ``fast_path=False`` makes :meth:`advance_inline` refuse (the reference
    engine); results are bit-identical either way.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_heap",
        "_cancelled_in_heap",
        "_events_fired",
        "_running",
        "_fast_path",
        "_until",
        "_run_max",
        "_run_fired",
        "_inline_advances",
    )

    def __init__(self, *, fast_path: bool = True) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        #: heap of ``[time, seq, fn]`` entries; ``fn is None`` = cancelled
        self._heap: list[list] = []
        self._cancelled_in_heap: int = 0
        self._events_fired: int = 0
        self._running = False
        self._fast_path = fast_path
        # active run() bounds, mirrored by advance_inline()
        self._until: float | None = None
        self._run_max: int | None = None
        self._run_fired: int = 0
        self._inline_advances: int = 0

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events not yet fired.

        Counts lazily (O(queued)) — a diagnostic, not a hot path.
        """
        return sum(1 for e in self._heap if e[2] is not None)

    @property
    def events_fired(self) -> int:
        """Total events executed so far (for instrumentation and tests).

        Inline clock advances count too — they stand in for the resume
        event the general path would have fired.
        """
        return self._events_fired

    def fastpath_stats(self) -> dict[str, int]:
        """Counters for how often the heap was bypassed."""
        return {
            "events_fired": self._events_fired,
            "inline_advances": self._inline_advances,
            "heap_fired": self._events_fired - self._inline_advances,
        }

    def queue_stats(self) -> dict[str, int]:
        """Event-queue depth snapshot (diagnostics and the ``metrics``
        artifact's gauges — O(heap), off every hot path)."""
        return {
            "heap_depth": len(self._heap),
            "heap_live": self.pending,
            "heap_cancelled": self._cancelled_in_heap,
        }

    # ------------------------------------------------------------ scheduling

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` µs from now (fire-and-forget).

        Returns nothing: the queue entry is internal, so the common path
        allocates no handle.  Use :meth:`schedule_event` when the caller
        needs to cancel.
        """
        if _INF > delay >= 0.0:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, [self._now + delay, seq, fn])
            return
        raise _bad_delay(delay)

    def schedule_event(self, delay: float, fn: Callable[[], None]) -> Event:
        """Like :meth:`schedule`, but returns a cancellable :class:`Event`."""
        if not (_INF > delay >= 0.0):
            raise _bad_delay(delay)
        seq = self._seq + 1
        self._seq = seq
        entry = [self._now + delay, seq, fn]
        heappush(self._heap, entry)
        return Event(entry, self)

    def advance_inline(self, delay: float) -> bool:
        """Fast path for a busy wait: advance the clock ``delay`` µs *now*
        if and only if nothing else would fire in the window.

        Returns False (caller must ``schedule`` a real event) when a
        pending event, an active ``until`` bound, or a ``max_events``
        budget falls inside ``[now, now + delay]``.  On success the
        sequence-number / ``events_fired`` accounting of the avoided
        schedule-then-fire round trip is mirrored exactly, keeping runs
        bit-identical to the general path.
        """
        if not self._fast_path or not (_INF > delay > 0.0):
            return False
        target = self._now + delay
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2] is not None:
                if head[0] <= target:
                    return False
                break
            heappop(heap)
            self._cancelled_in_heap -= 1
        if self._until is not None and target > self._until:
            return False
        run_max = self._run_max
        if run_max is not None:
            if self._run_fired + 1 >= run_max:
                # let the general path fire the resume and raise at the
                # exact point the unoptimized engine would have
                return False
            self._run_fired += 1
        self._seq += 1
        self._events_fired += 1
        self._inline_advances += 1
        self._now = target
        return True

    # ------------------------------------------------------------ cancellation

    def _note_cancel(self) -> None:
        """A live heap entry was cancelled; compact if bloat crosses the
        threshold (more cancelled than live entries)."""
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= DRAIN_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self.drain_cancelled()

    def drain_cancelled(self) -> None:
        """Compact the heap by dropping cancelled entries.

        Runs automatically when cancelled entries exceed half the heap
        (see :data:`DRAIN_MIN_CANCELLED`); correctness never requires it.
        Compaction is in place so a running event loop keeps its local
        binding valid.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[2] is not None]
        heapify(heap)
        self._cancelled_in_heap = 0

    # --------------------------------------------------------------- running

    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            fn = entry[2]
            if fn is None:
                self._cancelled_in_heap -= 1
                continue
            entry[2] = None
            self._now = entry[0]
            self._events_fired += 1
            fn()
            return True
        return False

    def run(self, *, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, or the clock would pass ``until``,
        or ``max_events`` have fired (whichever comes first).

        ``max_events`` is a runaway guard for tests: hitting it raises
        :class:`SimulationError` rather than silently stopping, because a
        simulation that spins forever in virtual time is a bug.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._until = until
        self._run_max = max_events
        self._run_fired = 0
        horizon = _INF if until is None else until
        heap = self._heap
        try:
            # ``while True``, not ``while heap``: CPython 3.11 specializes a
            # code object's bytecode after eight calls or unconditional
            # backward jumps, and ``while heap`` closes with a conditional
            # one -- a process that calls run() once would fire every event
            # through unspecialized bytecode (1.5x the time per event)
            while True:
                if not heap:
                    break
                entry = heap[0]
                fn = entry[2]
                if fn is None:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                if entry[0] > horizon:
                    break
                heappop(heap)
                entry[2] = None
                self._now = entry[0]
                self._events_fired += 1
                fn()
                if max_events is not None:
                    self._run_fired += 1
                    if self._run_fired >= max_events:
                        raise SimulationError(
                            f"simulation exceeded max_events={max_events} "
                            f"(t={self._now:.1f} us); likely a virtual-time livelock"
                        )
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._until = None
            self._run_max = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f}us pending={self.pending}>"


class Watchdog:
    """Stall detector: samples a progress metric every ``window_us`` of
    virtual time and calls ``on_stall`` when two consecutive samples are
    equal while events are still being consumed.

    The metric is whatever ``progress()`` returns (any equality-comparable
    snapshot — the cluster uses packets delivered + scheduler trampoline
    steps).  A simulation that *drains* is never a watchdog case — the run
    loop returns and the caller inspects the final state; the watchdog
    exists for virtual-time **livelock**, where events keep firing (e.g. a
    retransmit timer whose packets a fault plan keeps eating) but nothing
    the program would call progress ever happens.

    ``on_stall`` decides what a stall means: raise (the cluster raises
    :class:`~repro.errors.DeadlockError` with a full diagnostic dump),
    or return True to keep watching / False to stand down.  The watchdog
    never keeps an otherwise-finished simulation alive: it re-arms only
    while other events are pending.
    """

    __slots__ = ("sim", "window_us", "ticks", "stalls", "_progress", "_on_stall", "_last", "_event")

    def __init__(
        self,
        sim: Simulator,
        progress: Callable[[], object],
        *,
        window_us: float,
        on_stall: Callable[[], bool],
    ):
        if not (_INF > window_us > 0.0):
            raise SimulationError(f"watchdog window must be positive, got {window_us}")
        self.sim = sim
        self.window_us = window_us
        self._progress = progress
        self._on_stall = on_stall
        self._last: object = progress()
        self._event: Event | None = None
        #: instrumentation: windows inspected / consecutive stalled windows
        self.ticks = 0
        self.stalls = 0

    @property
    def armed(self) -> bool:
        return self._event is not None and self._event.alive

    def start(self) -> "Watchdog":
        if self._event is None:
            self._event = self.sim.schedule_event(self.window_us, self._tick)
        return self

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        self._event = None
        self.ticks += 1
        snapshot = self._progress()
        if snapshot == self._last:
            self.stalls += 1
            if not self._on_stall():
                return  # handler stood the watchdog down
        else:
            self.stalls = 0
            self._last = snapshot
        if self.sim.pending:
            # re-arm only while the simulation has a life of its own —
            # the watchdog must never be the thing keeping it running
            self._event = self.sim.schedule_event(self.window_us, self._tick)
