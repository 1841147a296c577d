"""Effects yielded by simulated-thread bodies.

A thread body is a Python generator.  It *requests* machine actions by
yielding one of these effect objects to its node's scheduler, which
interprets the effect, advances virtual time, and eventually resumes the
generator.  Runtime services (locks, message sends, polls...) are
sub-generators composed with ``yield from`` so the effects bubble up to the
scheduler from arbitrarily deep call chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.account import Category

__all__ = [
    "Effect",
    "Charge",
    "Switch",
    "Park",
    "WaitInbox",
    "SWITCH",
    "PARK",
    "WAIT_INBOX",
]


class Effect:
    """Marker base class for scheduler effects."""

    __slots__ = ()


class Charge(Effect):
    """Consume ``us`` microseconds of this node's CPU, tagged ``category``.

    While the charge elapses no other thread runs on the node (the paper's
    threads package is non-preemptive), but network deliveries still land
    in the node's inbox.

    Not a dataclass, unlike its stateless siblings: construction stays a
    few slot stores (validation happens where the charge is applied —
    negative amounts raise in ``Node.charge`` / the scheduler trampoline).
    ``cidx`` pre-resolves ``category.index`` so the accounting hot loop
    indexes the flat per-category array with one attribute load.  Treat
    instances as immutable.
    """

    __slots__ = ("us", "category", "cidx")

    def __init__(self, us: float, category: Category = Category.CPU):
        self.us = us
        self.category = category
        self.cidx = category.index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Charge(us={self.us!r}, category={self.category!r})"


@dataclass(frozen=True, slots=True)
class Switch(Effect):
    """Voluntarily yield the CPU: requeue self, run the next ready thread.

    The context-switch cost from the machine's cost model is charged to
    ``THREAD_MGMT`` — this is the 6 µs 'Yield' column of Table 4.
    """


@dataclass(frozen=True, slots=True)
class Park(Effect):
    """Block until some other agent calls ``scheduler.wake(thread)``.

    Used by locks, condition variables, sync variables and reply waits.
    Parking itself is free; the *reason* for parking charges its own costs.
    """


@dataclass(frozen=True, slots=True)
class WaitInbox(Effect):
    """Sleep until a message lands in this node's inbox (or one is already
    deliverable).  The elapsed gap is charged to ``IDLE``.

    This is how a polling loop avoids spinning in virtual time when the
    node is otherwise quiescent.
    """


# The stateless effects are interchangeable across instances, so hot paths
# yield these shared singletons instead of allocating one per suspension.
SWITCH = Switch()
PARK = Park()
WAIT_INBOX = WaitInbox()
