"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock (float microseconds) and a binary
heap of scheduled callbacks.  Events scheduled for the same instant fire in
scheduling order (monotone sequence numbers break ties), which makes the
whole machine deterministic — a property the test suite checks directly.

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

Wall-clock fast path
--------------------

Three mechanisms remove engine overhead from the common cases without
changing any observable ordering (``fast_path=False`` routes everything
through the heap; the golden-trace tests assert both produce bit-identical
results):

* **zero-delay lane** — ``delay == 0`` callbacks (dispatch kicks,
  same-instant wake-ups) go into a FIFO deque instead of the heap.  Lane
  entries still consume sequence numbers, and the run loop merges the two
  queues by ``(time, seq)``, so interleaving with due heap events is
  exactly what the heap alone would have produced.  Handles are never
  issued for lane entries, so fired ones are recycled through a freelist
  instead of being reallocated per kick.
* **inline advance** — :meth:`advance_inline` lets a caller (the thread
  scheduler, for a ``Charge``) move the clock forward *without* an event
  at all, provided no pending event (and no ``until`` bound) falls inside
  the window.  It mirrors the sequence-number and ``events_fired``
  bookkeeping of the schedule-then-fire round trip it replaces, so a run
  is bit-identical either way.
* **split run loops** — a bare ``run()`` takes a lean loop with no
  ``until``/``max_events`` checks and every hot name bound locally; bounded
  runs take the general loop.  Both consume the queues identically.
* **epoch batching** — within one virtual instant the lean loop fires
  events in flat batches instead of re-entering the full two-queue merge
  per event.  Once the heap's head lies strictly in the future, every
  zero-delay lane entry (including ones appended *during* the drain)
  fires back-to-back with no comparisons at all; and when several heap
  entries share the same timestamp they are popped and fired in one
  run.  Both rest on the same invariant: a callback can only create
  entries with a **higher** sequence number than everything already due,
  so nothing it schedules can preempt the rest of the current epoch.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from heapq import heapify, heappop, heappush

from repro.errors import SimulationError

__all__ = ["Event", "Simulator", "Watchdog"]

_INF = float("inf")

#: recycled zero-delay lane entries kept around (bounds freelist memory)
_FREELIST_MAX = 128

#: auto-compaction floor: drain_cancelled() triggers only once at least
#: this many cancelled entries sit in the heap (and they exceed half of it)
DRAIN_MIN_CANCELLED = 64


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

    ``fast_path=False`` routes every callback through the heap (the
    reference engine); results are bit-identical either way.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_heap",
        "_immediate",
        "_free",
        "_cancelled_in_heap",
        "_events_fired",
        "_running",
        "_fast_path",
        "_until",
        "_run_max",
        "_run_fired",
        "_inline_advances",
        "_immediate_fired",
    )

    def __init__(self, *, fast_path: bool = True) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        #: heap of ``[time, seq, fn]`` entries; ``fn is None`` = cancelled
        self._heap: list[list] = []
        #: zero-delay lane; entries are always live (no handles issued)
        self._immediate: deque[list] = deque()
        self._free: list[list] = []
        self._cancelled_in_heap: int = 0
        self._events_fired: int = 0
        self._running = False
        self._fast_path = fast_path
        # active run() bounds, mirrored by advance_inline()
        self._until: float | None = None
        self._run_max: int | None = None
        self._run_fired: int = 0
        # fast-path instrumentation
        self._inline_advances: int = 0
        self._immediate_fired: int = 0

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
        heap_live = sum(1 for e in self._heap if e[2] is not None)
        return heap_live + len(self._immediate)

    @property
    def events_fired(self) -> int:
        """Total events executed so far (for instrumentation and tests).

        Inline clock advances count too — they stand in for the resume
        event the general path would have fired.
        """
        return self._events_fired

    @property
    def fast_path(self) -> bool:
        return self._fast_path

    def fastpath_stats(self) -> dict[str, int]:
        """Counters for how often the heap was bypassed."""
        return {
            "events_fired": self._events_fired,
            "inline_advances": self._inline_advances,
            "immediate_fired": self._immediate_fired,
            "heap_fired": (
                self._events_fired - self._inline_advances - self._immediate_fired
            ),
        }

    def queue_stats(self) -> dict[str, int]:
        """Event-queue depth snapshot (diagnostics and the ``metrics``
        artifact's gauges — O(heap), off every hot path)."""
        heap_live = sum(1 for e in self._heap if e[2] is not None)
        return {
            "heap_depth": len(self._heap),
            "heap_live": heap_live,
            "heap_cancelled": self._cancelled_in_heap,
            "lane_depth": len(self._immediate),
            "freelist": len(self._free),
        }

    # ------------------------------------------------------------ scheduling

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` µs from now (fire-and-forget).

        Returns nothing: the queue entry is internal, so the common path
        allocates no handle.  Use :meth:`schedule_event` when the caller
        needs to cancel.
        """
        if _INF > delay > 0.0:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, [self._now + delay, seq, fn])
            return
        self._schedule_edge(delay, fn)

    def _schedule_edge(self, delay: float, fn: Callable[[], None]) -> None:
        """Off-hot-path cases of :meth:`schedule`: zero delay and errors."""
        if delay == 0.0:
            seq = self._seq + 1
            self._seq = seq
            if self._fast_path:
                self._immediate.append([self._now, seq, fn])
            else:
                heappush(self._heap, [self._now, seq, fn])
            return
        if delay != delay or delay == _INF:
            raise SimulationError(f"cannot schedule a {delay} us delay")
        raise SimulationError(f"cannot schedule {delay} us in the past")

    def schedule_at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at absolute virtual time ``time`` (fire-and-forget)."""
        now = self._now
        if now < time < _INF:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, [time, seq, fn])
            return
        if time == now:
            seq = self._seq + 1
            self._seq = seq
            if self._fast_path:
                self._immediate.append([time, seq, fn])
            else:
                heappush(self._heap, [time, seq, fn])
            return
        if time != time or time == _INF:
            raise SimulationError(f"cannot schedule at t={time}")
        raise SimulationError(f"cannot schedule at t={time} (now is t={now})")

    def schedule_event(self, delay: float, fn: Callable[[], None]) -> Event:
        """Like :meth:`schedule`, but returns a cancellable :class:`Event`.

        Handle-bearing events always go through the heap — never the
        recycled zero-delay lane — so a retained handle can never alias a
        reused entry.  Ordering is identical either way: the run loop
        merges heap and lane by ``(time, seq)``.
        """
        if delay != delay or delay == _INF:
            raise SimulationError(f"cannot schedule a {delay} us delay")
        if delay < 0.0:
            raise SimulationError(f"cannot schedule {delay} us in the past")
        seq = self._seq + 1
        self._seq = seq
        entry = [self._now + delay, seq, fn]
        heappush(self._heap, entry)
        return Event(entry, self)

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Zero-delay schedule for callbacks that are never cancelled.

        Allocation-free in steady state: the backing entry comes from (and
        returns to) a freelist, which is safe precisely because no
        reference escapes this module.  Ordering is identical to
        ``schedule(0.0, fn)``.
        """
        seq = self._seq + 1
        self._seq = seq
        if not self._fast_path:
            heappush(self._heap, [self._now, seq, fn])
            return
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = self._now
            entry[1] = seq
            entry[2] = fn
        else:
            entry = [self._now, seq, fn]
        self._immediate.append(entry)

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
        # ordered for the hot path: one truth test rejects most non-cases
        if self._immediate or not self._fast_path:
            return False
        if not (_INF > delay > 0.0):
            return False
        target = self._now + delay
        heap = self._heap
        if heap:
            head = heap[0]
            if head[2] is None:
                while heap and heap[0][2] is None:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                if heap and heap[0][0] <= target:
                    return False
            elif head[0] <= target:
                return False
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
        bindings valid.  The zero-delay lane never holds cancelled
        entries (no handles are issued for it), so only the heap is
        touched.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[2] is not None]
        heapify(heap)
        self._cancelled_in_heap = 0

    # --------------------------------------------------------------- running

    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        heap = self._heap
        imm = self._immediate
        while True:
            nxt = None
            if heap:
                nxt = heap[0]
                if nxt[2] is None:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
            if imm:
                ientry = imm[0]
                if nxt is None or not (
                    nxt[0] < ientry[0] or (nxt[0] == ientry[0] and nxt[1] < ientry[1])
                ):
                    imm.popleft()
                    fn = ientry[2]
                    if len(self._free) < _FREELIST_MAX:
                        self._free.append(ientry)
                    self._now = ientry[0]
                    self._events_fired += 1
                    self._immediate_fired += 1
                    fn()
                    return True
            if nxt is None:
                return False
            heappop(heap)
            fn = nxt[2]
            nxt[2] = None
            self._now = nxt[0]
            self._events_fired += 1
            fn()
            return True

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
        try:
            if until is None and max_events is None:
                self._run_unbounded()
            else:
                self._until = until
                self._run_max = max_events
                self._run_fired = 0
                self._run_bounded(until, max_events)
        finally:
            self._running = False
            self._until = None
            self._run_max = None

    def _run_unbounded(self) -> None:
        """The lean loop: no bounds to check, every hot name bound locally.

        ``drain_cancelled()`` compacts the heap in place, so the local
        bindings stay valid even if a callback triggers it.  The epoch
        sub-loops fire whole batches of same-instant events and flush the
        fired-event counters once per batch; the deferral is safe because
        the only mid-batch writer, ``advance_inline``, *adds* to the same
        counters (commutative) and nothing reads them between events of
        one instant.
        """
        heap = self._heap
        imm = self._immediate
        free = self._free
        pop = heappop
        imm_pop = imm.popleft
        while True:
            if imm:
                ientry = imm[0]
                take_lane = True
                if heap:
                    h = heap[0]
                    ht = h[0]
                    it = ientry[0]
                    if ht < it or (ht == it and h[1] < ientry[1]):
                        take_lane = False
                if take_lane:
                    # Lane epoch: fire lane entries back-to-back until a
                    # heap entry is due first.  One truth test per event
                    # while the heap is empty; one time/seq compare
                    # otherwise — never the full outer-merge restart.
                    fired = 0
                    while True:
                        imm_pop()
                        fn = ientry[2]
                        if len(free) < _FREELIST_MAX:
                            free.append(ientry)
                        self._now = ientry[0]
                        fired += 1
                        fn()
                        if not imm:
                            break
                        ientry = imm[0]
                        if heap:
                            h = heap[0]
                            ht = h[0]
                            it = ientry[0]
                            if ht < it or (ht == it and h[1] < ientry[1]):
                                break
                    self._events_fired += fired
                    self._immediate_fired += fired
                    continue
            elif not heap:
                return
            entry = pop(heap)
            fn = entry[2]
            if fn is None:
                self._cancelled_in_heap -= 1
                continue
            entry[2] = None
            t = entry[0]
            self._now = t
            self._events_fired += 1
            fn()
            if heap and heap[0][0] == t:
                # Heap epoch: every remaining event of this instant, in
                # one flat run.  Anything a callback schedules carries a
                # higher sequence number than everything already queued
                # at ``t``, so only a lane entry with a *lower* seq (the
                # one cheap guard below) can preempt the rest.
                fired = 0
                while heap and heap[0][0] == t:
                    e2 = heap[0]
                    if imm and imm[0][1] < e2[1]:
                        break
                    pop(heap)
                    fn = e2[2]
                    if fn is None:
                        self._cancelled_in_heap -= 1
                        continue
                    e2[2] = None
                    fired += 1
                    fn()
                self._events_fired += fired

    def _run_bounded(self, until: float | None, max_events: int | None) -> None:
        """The general loop: honours ``until`` and ``max_events``.

        Consumes the queues in exactly the same order as the lean loop.
        """
        heap = self._heap
        imm = self._immediate
        free = self._free
        while True:
            from_lane = False
            nxt = None
            if heap:
                nxt = heap[0]
                if nxt[2] is None:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
            if imm:
                ientry = imm[0]
                if nxt is None or not (
                    nxt[0] < ientry[0] or (nxt[0] == ientry[0] and nxt[1] < ientry[1])
                ):
                    nxt, from_lane = ientry, True
            elif nxt is None:
                break
            if until is not None and nxt[0] > until:
                self._now = until
                return
            if from_lane:
                imm.popleft()
                fn = nxt[2]
                if len(free) < _FREELIST_MAX:
                    free.append(nxt)
                self._immediate_fired += 1
            else:
                heappop(heap)
                fn = nxt[2]
                nxt[2] = None
            self._now = nxt[0]
            self._events_fired += 1
            fn()
            self._run_fired += 1
            if max_events is not None and self._run_fired >= max_events:
                raise SimulationError(
                    f"simulation exceeded max_events={max_events} "
                    f"(t={self._now:.1f} us); likely a virtual-time livelock"
                )
        if until is not None and until > self._now:
            self._now = until

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
