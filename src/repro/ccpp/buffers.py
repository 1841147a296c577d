"""Persistent S-/R-buffers (§4, *Persistent Buffers*).

Marshalled arguments travel sender S-buffer → wire → receiver.  On a
**cold** invocation the bytes land in the node's *static buffer area*;
the handler allocates a fresh R-buffer, copies the data across (one extra
copy, charged per byte), and attaches the R-buffer to the method so the
stub-update message can advertise its id.  **Warm** invocations deposit
straight into the persistent R-buffer — no allocation, no extra copy.

Bulk *read* replies are the asymmetric case the paper calls out: the
return data is copied twice at the initiator (static area → R-buffer →
CC++ object) because the initiator did not pass an R-buffer address.
``RMIEngine`` charges that; the ablation that passes the address exists
as a cost-model switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RuntimeStateError
from repro.threads.sync import Lock

__all__ = ["BufferManager", "RBuffer"]

#: size of the per-node static buffer landing area (bytes); transfers
#: larger than this would need fragmentation, which the runtimes avoid.
STATIC_AREA_BYTES = 1 << 20


@dataclass(slots=True)
class RBuffer:
    """A persistent receive buffer attached to one (method, sender) pair.

    Keyed per sender because the sender *manages* the buffer (deposits
    into it directly on warm invocations); two initiators of the same
    method must not share one landing zone."""

    rbuf_id: int
    method: str
    sender: int
    capacity: int
    data: bytearray = field(default_factory=bytearray)
    uses: int = 0


class BufferManager:
    """Per-node buffer bookkeeping, guarded by a real lock."""

    SERVICE = "cc_bufs"

    def __init__(self, node) -> None:
        self.node = node
        self.lock = Lock(node, "buffer-pool")
        self._rbufs: dict[int, RBuffer] = {}
        self._by_key: dict[tuple[str, int], int] = {}
        self._next_id = 0
        node.attach(self.SERVICE, self)

    def alloc_rbuf(self, method: str, sender: int, capacity: int) -> RBuffer:
        """Cold path: allocate and attach a fresh R-buffer."""
        if capacity < 0 or capacity > STATIC_AREA_BYTES:
            raise RuntimeStateError(f"R-buffer capacity {capacity} out of range")
        key = (method, sender)
        if key in self._by_key:
            # re-resolution (e.g. overlapping cold invocations before the
            # stub update lands): keep the attached buffer and its id —
            # a stub update already in flight may advertise the old id,
            # and a warm deposit through it must still resolve
            rbuf = self._rbufs[self._by_key[key]]
            if capacity > rbuf.capacity:
                rbuf.capacity = capacity
            return rbuf
        rbuf = RBuffer(self._next_id, method, sender, capacity)
        self._next_id += 1
        self._rbufs[rbuf.rbuf_id] = rbuf
        self._by_key[key] = rbuf.rbuf_id
        return rbuf

    def deposit(self, rbuf_id: int, payload: bytes | bytearray | memoryview) -> RBuffer:
        """Warm path: the sender-managed deposit into a persistent buffer.

        ``payload`` may be a zero-copy ``memoryview`` of the sender's
        pooled marshalling buffer; the one slice-assignment below is the
        single payload copy of the warm path."""
        try:
            rbuf = self._rbufs[rbuf_id]
        except KeyError:
            raise RuntimeStateError(
                f"node {self.node.nid}: deposit into unknown R-buffer {rbuf_id}"
            ) from None
        n = len(payload)
        if n > STATIC_AREA_BYTES:
            raise RuntimeStateError("R-buffer overflow")
        if n > rbuf.capacity:
            # the managing sender grows its buffer when the method's
            # argument footprint grows
            rbuf.capacity = n
        rbuf.data[:] = payload
        rbuf.uses += 1
        return rbuf

    @property
    def allocated(self) -> int:
        return len(self._rbufs)
