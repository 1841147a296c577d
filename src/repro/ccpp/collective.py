"""Collective helpers built purely on RMI (no SPMD runtime support).

CC++ has no language-level barrier — the paper's application ports build
synchronization from RMI and sync variables.  :class:`CCBarrier` is the
canonical pattern: a processor object on one node whose *threaded*
``arrive`` method blocks on a condition variable until every participant
has arrived; the RMI replies then release all callers.  This is exactly
the situation §3 gives for why RMI needs real threads: a remote method
that blocks must not wedge the node that serves it.

Reductions and broadcasts go through :class:`~repro.rma.tree.TreeComm`
over the runtime's AM endpoints, called from RMI contexts.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.ccpp.gp import ObjectGlobalPtr
from repro.ccpp.procobj import ProcessorObject, remote
from repro.ccpp.registry import processor_class
from repro.threads.sync import Condition, Lock

__all__ = ["CCBarrier"]


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
