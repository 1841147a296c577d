"""The user-level thread object."""

from __future__ import annotations

import enum
import itertools
from collections.abc import Generator
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.scheduler import Scheduler

__all__ = ["UThread", "ThreadState"]

_thread_ids = itertools.count(1)


class ThreadState(enum.Enum):
    """Lifecycle of a :class:`UThread`."""

    NEW = "new"
    READY = "ready"            # on the run queue
    RUNNING = "running"        # the node's current thread
    PARKED = "parked"          # blocked; needs an explicit wake
    WAIT_INBOX = "wait-inbox"  # blocked until a message is delivered
    DONE = "done"


class UThread:
    """A cooperative thread: a generator plus scheduling state.

    Construct via ``Scheduler.make_thread`` / the :func:`repro.threads.spawn`
    service, not directly — the scheduler owns state transitions.
    """

    __slots__ = (
        "tid",
        "name",
        "gen",
        "send",
        "state",
        "scheduler",
        "result",
        "exception",
        "_join_waiters",
        "daemon",
    )

    def __init__(
        self,
        scheduler: "Scheduler",
        gen: Generator[Any, Any, Any],
        name: str = "",
        *,
        daemon: bool = False,
    ):
        self.tid = next(_thread_ids)
        self.name = name or f"thread-{self.tid}"
        self.gen = gen
        #: bound ``gen.send``, resolved once — the trampoline calls it on
        #: every resume, at the highest frequency in the simulator
        self.send = gen.send
        self.state = ThreadState.NEW
        self.scheduler = scheduler
        #: value returned by the generator body (StopIteration.value)
        self.result: Any = None
        #: exception that killed the body, if any (re-raised by join)
        self.exception: BaseException | None = None
        # lazily created: most threads are never joined, and the apps spawn
        # threads by the thousand, so don't pay a list per thread
        self._join_waiters: list["UThread"] | None = None
        #: daemon threads (the polling thread) don't count as "work left"
        self.daemon = daemon

    @property
    def alive(self) -> bool:
        return self.state is not ThreadState.DONE

    def where(self) -> str:
        """Where the thread body is suspended: the chain of generator
        frames (outermost first) down through every ``yield from``.  The
        payload of the :class:`~repro.errors.DeadlockError` dump."""
        frames: list[str] = []
        gen: Any = self.gen
        while gen is not None:
            frame = getattr(gen, "gi_frame", None)
            if frame is None:
                break
            frames.append(f"{frame.f_code.co_name}:{frame.f_lineno}")
            gen = getattr(gen, "gi_yieldfrom", None)
        if not frames:
            return "<not started>" if self.state is ThreadState.NEW else "<finished>"
        return " -> ".join(frames)

    def add_join_waiter(self, waiter: "UThread") -> None:
        if self._join_waiters is None:
            self._join_waiters = [waiter]
        else:
            self._join_waiters.append(waiter)

    def take_join_waiters(self) -> list["UThread"]:
        waiters = self._join_waiters
        if waiters is None:
            return []
        self._join_waiters = None
        return waiters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UThread {self.name} node={self.scheduler.nid} {self.state.value}>"
