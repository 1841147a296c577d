"""Collective helpers built purely on RMI (no SPMD runtime support).

CC++ has no language-level barrier — the paper's application ports build
synchronization from RMI and sync variables.  :class:`CCBarrier` is the
canonical pattern: a processor object on one node whose *threaded*
``arrive`` method blocks on a condition variable until every participant
has arrived; the RMI replies then release all callers.  This is exactly
the situation §3 gives for why RMI needs real threads: a remote method
that blocks must not wedge the node that serves it.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.ccpp.gp import ObjectGlobalPtr
from repro.ccpp.procobj import ProcessorObject, remote
from repro.ccpp.registry import processor_class
from repro.threads.sync import Condition, Lock

__all__ = ["CCBarrier", "CCReducer"]


@processor_class
class CCBarrier(ProcessorObject):
    """Barrier over ``nprocs`` participants, hosted on one node."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.count = 0
        self.epoch = 0
        self._lock = Lock(self.ctx.node, "cc-barrier")
        self._cond = Condition(self._lock)

    @remote(threaded=True)
    def arrive(self) -> Generator[Any, Any, int]:
        """Block until all participants have arrived; returns the epoch."""
        yield from self._lock.acquire()
        my_epoch = self.epoch
        self.count += 1
        if self.count == self.nprocs:
            self.count = 0
            self.epoch += 1
            yield from self._cond.broadcast()
        else:
            while self.epoch == my_epoch:
                yield from self._cond.wait()
        yield from self._lock.release()
        return self.epoch

    @staticmethod
    def wait(ctx: Any, gptr: ObjectGlobalPtr) -> Generator[Any, Any, int]:
        """Client-side convenience: one barrier round trip."""
        return (yield from ctx.rmi(gptr, "arrive"))


@processor_class
class CCReducer(ProcessorObject):
    """Sum-reduction rendezvous: every participant contributes once per
    round; the reply carries the full round's total.  No application
    uses it; :class:`~repro.rma.tree.TreeComm`'s ``allreduce`` is the
    O(log P) alternative."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.pending = 0
        self.acc = 0.0
        self.round_no = 0
        #: per-round totals, kept until every participant has read its
        #: round.  A single shared slot raced: a waiter woken for round r
        #: could sit in the lock queue long enough for round r+1 to
        #: complete and overwrite the slot before the waiter read it.
        self._totals: dict[int, float] = {}
        self._readers: dict[int, int] = {}
        self._lock = Lock(self.ctx.node, "cc-reducer")
        self._cond = Condition(self._lock)

    @remote(threaded=True)
    def contribute(self, value: float) -> Generator[Any, Any, float]:
        yield from self._lock.acquire()
        my_round = self.round_no
        self.acc += value
        self.pending += 1
        if self.pending == self.nprocs:
            self._totals[my_round] = self.acc
            self._readers[my_round] = self.nprocs
            self.acc = 0.0
            self.pending = 0
            self.round_no += 1
            yield from self._cond.broadcast()
        else:
            while self.round_no == my_round:
                yield from self._cond.wait()
        total = self._totals[my_round]
        self._readers[my_round] -= 1
        if self._readers[my_round] == 0:
            del self._totals[my_round]
            del self._readers[my_round]
        yield from self._lock.release()
        return total
