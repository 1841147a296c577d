"""The per-node cooperative scheduler.

Exactly one thread runs on a node at a time (non-preemptive, like the
paper's threads package).  The scheduler interprets the effects a thread
body yields:

``Charge(us, cat)``
    account ``us`` against ``cat`` and resume the same thread ``us`` later
    (the node is busy for the duration; network deliveries still land in
    the inbox).
``Switch()``
    voluntary yield: charge one context switch (THREAD_MGMT, counted as a
    'Yield' for Table 4), requeue the thread, run the next ready one.
``Park()``
    block until :meth:`Scheduler.wake`.  The handoff to the next ready
    thread is free — the paper's 6 µs context-switch cost is for switches
    between *runnable* threads; blocking costs are carried by the sync
    operations that cause them.
``WaitInbox()``
    sleep until the node's inbox is non-empty; the gap is charged to IDLE.

Dispatch is driven by zero-delay simulator events so that wake-ups from
message deliveries interleave deterministically with everything else.
Consecutive ``Charge`` effects are *fused*: while no other event falls
inside the charge window the trampoline advances the clock inline
(:meth:`Simulator.advance_inline`) and keeps pumping the same generator,
instead of paying one heap event per charge.  Ordering is bit-identical
to the general path — the fusion only happens when nothing could have
interleaved anyway.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from repro.errors import SimulationError
from repro.obs.metrics import MetricNames
from repro.sim.account import Category, CounterNames
from repro.sim.trace import NullTracer
from repro.sim.effects import Charge, Park, Switch, WaitInbox
from repro.threads.thread import ThreadState, UThread

__all__ = ["Scheduler"]


class Scheduler:
    """Owns the run queue and the trampoline for one node."""

    def __init__(self, node: Any):
        if node.scheduler is not None:
            raise SimulationError(f"node {node.nid} already has a scheduler")
        # the node owns its scheduler and not the other way round: what the
        # trampoline needs of the node is held piece by piece, so a dropped
        # cluster is freed by reference count, without a collector pass
        self.nid = node.nid
        self.sim = node.sim
        node.scheduler = self
        self._inbox = node.inbox
        self._counters = node.counters
        self._ready: deque[UThread] = deque()
        self.current: UThread | None = None
        self._inbox_waiters: deque[UThread] = deque()
        self._dispatch_pending = False
        self._idle_since: float | None = None
        # bound record method, or None when tracing is off (the default);
        # skipping the no-op call matters at dispatch frequency
        tracer = node.tracer
        self._trace = None if type(tracer) is NullTracer else tracer.record
        # pre-resolved run-queue depth histogram (None when metrics are
        # off); sampled at dispatch, the highest-frequency control point
        metrics = node.metrics
        self._h_runq = (
            None if metrics is None else metrics.histogram(MetricNames.RUNQ_DEPTH)
        )
        #: threads that ever ran on this node (diagnostics)
        self.threads: list[UThread] = []
        #: trampoline entries — the stall watchdog's progress signal
        self.steps = 0
        # hot-path bindings, resolved once: the trampoline enters thousands
        # of times per simulated step and every attribute chain it skips
        # is paid at that frequency
        self._acct_us = node.account._us
        self._advance_inline = self.sim.advance_inline
        self._tcosts = node.costs.threads
        self._idle_cidx = Category.IDLE.index

    # ------------------------------------------------------------- inspection

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    def has_other_ready(self) -> bool:
        """True if some thread besides the current one is ready to run.

        Polling loops use this to decide between ``Switch`` (let others
        run) and ``WaitInbox`` (nothing to do, sleep).
        """
        return bool(self._ready)

    def blocked_threads(self) -> list[UThread]:
        """All live threads that are neither ready nor running (diagnostics
        for :class:`~repro.errors.DeadlockError`)."""
        return [
            t
            for t in self.threads
            if t.state in (ThreadState.PARKED, ThreadState.WAIT_INBOX)
        ]

    def live_nondaemon_count(self) -> int:
        return sum(1 for t in self.threads if t.alive and not t.daemon)

    def describe_blocked(self) -> list[str]:
        """One line per blocked thread, with its generator stack (the
        per-node section of the :class:`~repro.errors.DeadlockError` dump)."""
        lines = []
        for t in self.blocked_threads():
            tag = f"{t.state.value}, daemon" if t.daemon else t.state.value
            lines.append(f"{t.name} [{tag}] at {t.where()}")
        return lines

    # --------------------------------------------------------------- creation

    def make_thread(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "",
        *,
        daemon: bool = False,
    ) -> UThread:
        """Wrap a generator as a thread, ready to run.  Charges nothing —
        use :func:`repro.threads.spawn` from simulated code so the 5 µs
        creation cost is paid."""
        thr = UThread(self, gen, name, daemon=daemon)
        self.threads.append(thr)
        self._make_ready(thr)
        return thr

    # ---------------------------------------------------------------- wakeups

    def wake(self, thr: UThread) -> None:
        """Move a PARKED thread to the run queue."""
        if thr.scheduler is not self:
            raise SimulationError(
                f"cannot wake {thr.name}: it belongs to node {thr.scheduler.nid}"
            )
        if thr.state is not ThreadState.PARKED:
            raise SimulationError(f"wake() on {thr.name} in state {thr.state.value}")
        self._make_ready(thr)

    def on_message_arrival(self) -> None:
        """Network delivery hook.

        Wakes the *most recently* blocked inbox waiter — the hot thread, a
        spinner in ``poll_until`` — to do the actual poll.  A successful
        poll then calls :meth:`wake_all_inbox_waiters` so every other
        waiter rechecks its predicate (broadcast semantics); waking them
        all here would just make the cold polling thread race the spinner.
        """
        waiters = self._inbox_waiters
        if waiters:
            # Prefer the most recent NON-daemon waiter (a program thread
            # spinning on a reply) over the daemon polling thread, so a
            # spin-wait completes without dragging the pollster in.  The
            # common case — the newest waiter is the spinner — pops
            # straight off the deque.
            waiter = waiters[-1]
            if not waiter.daemon:
                waiters.pop()
            else:
                waiter = None
                for i in range(len(waiters) - 1, -1, -1):
                    if not waiters[i].daemon:
                        waiter = waiters[i]
                        del waiters[i]
                        break
                if waiter is None:
                    waiter = waiters.pop()
            # inlined _make_ready (a WAIT_INBOX thread always passes its
            # state checks); the dispatch kick it schedules covers every
            # follow-up this arrival could need
            waiter.state = ThreadState.READY
            self._ready.append(waiter)
            if self._idle_since is not None:
                self._end_idle()
            self._schedule_dispatch()
            return
        # No waiters.  The kick the reference discipline scheduled here
        # fired as a no-op (a mid-charge thread stays current for the rest
        # of this instant, and any transition that clears `current`
        # schedules its own covering kick), but it was not side-effect
        # free: while queued, its `_dispatch_pending` flag swallowed the
        # *delayed* dispatch of a same-instant voluntary Switch, letting
        # that switch charge context_switch µs of THREAD_MGMT yet start
        # the next thread with zero gap — accounting and timeline
        # disagreed.  Eliding the kick fixes that (every switch now pays
        # its delay; pinned by test_switch_delay_survives_same_instant_
        # arrival) and leaves one live effect to apply inline: opening
        # the idle window on a fully quiet node.  (Event removal only
        # shifts later sequence numbers uniformly, so every (time, seq)
        # tie-break and trace ordering is preserved.)
        if (
            self.current is None
            and not self._dispatch_pending
            and not self._ready
            and self._idle_since is None
        ):
            self._idle_since = self.sim.now

    def wake_all_inbox_waiters(self) -> None:
        """Release every inbox waiter (after a poll handled messages, so
        predicates guarded by inbox activity get rechecked)."""
        while self._inbox_waiters:
            waiter = self._inbox_waiters.popleft()
            waiter.state = ThreadState.PARKED
            self._make_ready(waiter)

    def _make_ready(self, thr: UThread) -> None:
        if thr.state in (ThreadState.READY, ThreadState.RUNNING):
            raise SimulationError(f"{thr.name} already {thr.state.value}")
        if thr.state is ThreadState.DONE:
            raise SimulationError(f"{thr.name} is done")
        thr.state = ThreadState.READY
        self._ready.append(thr)
        if self._idle_since is not None:
            self._end_idle()
        self._schedule_dispatch()

    # ------------------------------------------------------------ idle window

    def _end_idle(self) -> None:
        since = self._idle_since
        if since is not None:
            # inlined node.charge: the gap is non-negative by clock
            # monotonicity, so the validation is statically satisfied
            self._acct_us[self._idle_cidx] += self.sim._now - since
            self._idle_since = None

    # ------------------------------------------------------------- dispatching

    def _schedule_dispatch(self, delay: float = 0.0) -> None:
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        self.sim.schedule(delay, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        if self.current is not None:
            return  # a thread is mid-charge; its resume event continues it
        ready = self._ready
        if not ready:
            if self._idle_since is None:
                self._idle_since = self.sim._now
            return
        if self._h_runq is not None:
            # depth when the dispatcher runs, including the thread about
            # to be popped — a passive observation, no time charged
            self._h_runq.record(len(ready))
        thr = ready.popleft()
        if self._idle_since is not None:
            self._end_idle()
        thr.state = ThreadState.RUNNING
        self.current = thr
        if self._trace is not None:
            self._trace(self.sim._now, self.nid, "thread.run", thr.name)
        self._step(thr, None)

    def _after_suspend(self) -> None:
        """Post-suspension bookkeeping (``current`` just became None).

        With ready threads a dispatch kick is due, exactly as in the
        reference discipline.  With an empty run queue the kick would fire
        as a no-op whose only effect is opening the idle window — at the
        *same instant* it was scheduled — so the window is opened inline
        and the event elided.  Any later wake-up schedules its own kick
        via ``_make_ready``; a kick already pending (always a same-instant
        kick in this state) owns the idle bookkeeping instead.
        Eliding an event only shifts later sequence numbers uniformly,
        which preserves every (time, seq) tie-break, and one same-instant
        event fewer can only *enable* charge fusion, which is exact by
        construction.
        """
        if self._ready:
            self._schedule_dispatch()
        elif not self._dispatch_pending:
            if self._idle_since is None:
                self._idle_since = self.sim._now

    def _resume_current(self) -> None:
        thr = self.current
        if thr is None:  # pragma: no cover - invariant guard
            raise SimulationError("charge resume raced with another dispatch")
        self._step(thr, None)

    # ------------------------------------------------------------- trampoline

    def _step(self, thr: UThread, send_value: Any) -> None:
        """Advance ``thr`` until it suspends (charge/switch/park/wait) or
        finishes.  Zero-cost effects are handled inline in the loop, and
        charges whose window contains no pending event are *fused*: the
        clock advances inline and the loop keeps pumping the generator
        (no heap event, no trampoline re-entry)."""
        self.steps += 1
        sim = self.sim
        costs = self._tcosts
        send = thr.send
        advance_inline = self._advance_inline
        acct_us = self._acct_us
        while True:
            try:
                effect = send(send_value)
            except StopIteration as stop:
                self._finish(thr, result=stop.value, exc=None)
                return
            except Exception as exc:  # simulated thread body crashed
                self._finish(thr, result=None, exc=exc)
                return
            send_value = None

            if type(effect) is Charge:
                # inlined node.charge() — this is the single hottest effect
                us = effect.us
                if us < 0:
                    raise ValueError(f"negative charge: {us} us to {effect.category}")
                acct_us[effect.cidx] += us
                if us == 0.0:
                    continue
                if advance_inline(us):
                    continue  # fused: nothing could interleave in the window
                sim.schedule(us, self._resume_current)
                return

            if type(effect) is Switch:
                # inlined node.charge (the cost model validated the price)
                acct_us[Category.THREAD_MGMT.index] += costs.context_switch
                self._counters.inc(CounterNames.THREAD_YIELD)
                thr.state = ThreadState.READY
                self._ready.append(thr)
                self.current = None
                # the switch itself takes context_switch µs of CPU
                self._schedule_dispatch(costs.context_switch)
                return

            if type(effect) is Park:
                thr.state = ThreadState.PARKED
                self.current = None
                self._after_suspend()
                return

            if type(effect) is WaitInbox:
                if self._inbox:
                    continue  # something is already deliverable
                thr.state = ThreadState.WAIT_INBOX
                self._inbox_waiters.append(thr)
                self.current = None
                self._after_suspend()
                return

            raise SimulationError(
                f"thread {thr.name} yielded a non-effect: {effect!r} "
                "(did a runtime call miss its 'yield from'?)"
            )

    def _finish(self, thr: UThread, *, result: Any, exc: BaseException | None) -> None:
        if self._trace is not None:
            self._trace(self.sim._now, self.nid, "thread.done", thr.name)
        thr.state = ThreadState.DONE
        thr.result = result
        thr.exception = exc
        self.current = None
        for waiter in thr.take_join_waiters():
            self.wake(waiter)
        self._after_suspend()
        if exc is not None:
            # Simulated-code bugs must not be silently swallowed: re-raise
            # out of the event loop so tests fail loudly.
            raise SimulationError(
                f"thread {thr.name} on node {self.nid} raised"
            ) from exc
