"""The one-sided RMA runtime: windows, put/get/accumulate, completions.

Model (pMR / ibverbs shape, over the simulated AM fabric):

* a node **registers** a memory *window* — a named, pinned array remote
  peers may address by ``(window, offset)`` without any code running on
  the target CPU;
* ``put``/``accumulate`` move data *to* a window, ``get`` reads *from*
  one; every operation returns an :class:`RMAHandle` with two separate
  completion events, the distinction pMR makes explicit:

  - **local completion** — the source buffer is reusable.  Sends are
    synchronous-at-NIC in this simulator (the send charge models the
    NIC capturing the data), so local completion is set by the time the
    issuing generator resumes;
  - **remote completion** — the data is visible in the target window.
    The target NIC issues a ``rma.done`` notification back via
    :meth:`~repro.am.layer.AMEndpoint.control_send`; it costs NET time
    on both nodes but occupies no thread on either (that asymmetry *is*
    RDMA).

* on the target, the data placement itself is NIC-level too: the only
  thread-occupying cost is the poll hit that services the frame (the
  doorbell); the copy into the window is accounted NET without running
  on a thread.  ``accumulate`` applies ``+=`` instead of ``=`` — atomic
  for free because each simulated node is single-core.

Charging: issue costs ``sc_issue`` (RUNTIME) on the source; the wire and
send/receive overheads ride the normal AM path; window registration and
data placement charge ``copy_per_byte`` per byte (pin/DMA).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np

from repro.am import install_am
from repro.am.frames import BULK_HEADER_BYTES
from repro.errors import GlobalPointerError, RuntimeStateError
from repro.machine.cluster import Cluster
from repro.obs.metrics import MetricNames
from repro.sim.account import Category, CounterNames
from repro.sim.effects import Charge

__all__ = ["RMAWindow", "RMAHandle", "RMAProcess", "RMARuntime", "install_rma"]

#: wire sizes: header + window id + offset + handle id + flags words
_PUT_BYTES = 32          # + 8 per double beyond the first
_GET_REQ_BYTES = 32
_DONE_BYTES = 16
_DATA_BYTES = 24         # get reply header; + 8 per double beyond the first
#: widest payload that rides the short-frame path (doubles)
_SHORT_DOUBLES = 4

_F_NOTIFY = 1
_F_ACC = 2


class RMAWindow:
    """One registered window: a pinned, remotely addressable array."""

    __slots__ = ("name", "nid", "array")

    def __init__(self, name: str, nid: int, array: np.ndarray):
        self.name = name
        self.nid = nid
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RMAWindow({self.name!r}@{self.nid}, {len(self.array)})"


class RMAHandle:
    """Completion state of one one-sided operation."""

    __slots__ = ("op", "dst", "local_done", "remote_done", "value", "issued_at", "_sid")

    def __init__(self, op: str, dst: int, issued_at: float):
        self.op = op
        self.dst = dst
        self.local_done = False
        self.remote_done = False
        #: get only: the fetched block, set at remote completion
        self.value: np.ndarray | None = None
        self.issued_at = issued_at
        self._sid = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "remote" if self.remote_done else ("local" if self.local_done else "issued")
        return f"RMAHandle({self.op}->{self.dst}, {state})"


class _RMAState:
    """Per-node runtime state."""

    __slots__ = ("windows", "handles", "next_hid", "inflight", "notify")

    def __init__(self) -> None:
        self.windows: dict[str, RMAWindow] = {}
        self.handles: dict[int, RMAHandle] = {}
        self.next_hid = 0
        #: issued operations whose remote completion is outstanding
        self.inflight = 0
        #: cumulative notified-put count per window (never reset — waiters
        #: compare against a remembered base, so no reset races)
        self.notify: dict[str, int] = {}


class RMAProcess:
    """One node's view of the RMA runtime (the per-thread API surface)."""

    def __init__(self, rt: "RMARuntime", nid: int):
        self.rt = rt
        self.nid = nid
        self.ep = rt.endpoints[nid]
        self.node = rt.cluster.nodes[nid]
        self._st = rt.state(nid)
        self._per_byte = rt._per_byte
        self._chg_issue = rt._chg_issue
        metrics = self.node.metrics
        self._h_reg = None if metrics is None else metrics.histogram(MetricNames.RMA_REGISTER)
        self._h_remote = None if metrics is None else metrics.histogram(MetricNames.RMA_REMOTE)
        self._h_inflight = None if metrics is None else metrics.histogram(MetricNames.RMA_INFLIGHT)

    # ------------------------------------------------------------- windows

    def register(
        self, name: str, size: int, *, array: np.ndarray | None = None
    ) -> Generator[Any, Any, RMAWindow]:
        """Register a window: allocate (or pin ``array``) and publish it.

        Registration charges ``sc_issue`` plus a per-byte pin cost — the
        expensive, amortized step of real RDMA (memory registration), so
        windows should be long-lived.
        """
        st = self._st
        if name in st.windows:
            raise RuntimeStateError(f"RMA window {name!r} already registered on node {self.nid}")
        if array is None:
            array = np.zeros(size, dtype=np.float64)
        elif len(array) != size:
            raise RuntimeStateError(
                f"RMA window {name!r}: array of {len(array)} != declared size {size}"
            )
        node = self.node
        spans = node._spans
        t0 = node.sim._now
        sid = spans.begin(t0, self.nid, "rma.register", name) if spans is not None else -1
        # publish before charging the pin cost: the window is addressable
        # as soon as registration is issued (peers learn of it through the
        # program's own synchronization, the SPMD same-image assumption),
        # while the registering thread stays occupied for the pin time
        win = RMAWindow(name, self.nid, array)
        st.windows[name] = win
        yield self._chg_issue
        yield Charge(8.0 * size * self._per_byte, Category.RUNTIME)
        node.counters.counts[CounterNames.RMA_WINDOWS] += 1
        if self._h_reg is not None:
            self._h_reg.record(node.sim._now - t0)
        if spans is not None:
            spans.end(sid, node.sim._now)
        return win

    def window(self, name: str) -> RMAWindow:
        try:
            return self._st.windows[name]
        except KeyError:
            raise RuntimeStateError(
                f"no RMA window {name!r} on node {self.nid}"
            ) from None

    # ----------------------------------------------------------- one-sided

    def _issue(self, op: str, counter: str, dst: int) -> RMAHandle:
        node = self.node
        st = self._st
        node.counters.counts[counter] += 1
        if self._h_inflight is not None:
            self._h_inflight.record(float(st.inflight))
        st.inflight += 1
        handle = RMAHandle(op, dst, node.sim._now)
        spans = node._spans
        if spans is not None:
            handle._sid = spans.begin(handle.issued_at, self.nid, f"rma.{op}", str(dst))
        st.handles[st.next_hid] = handle
        st.next_hid += 1
        return handle

    def _put_like(
        self, op: str, counter: str, flags: int, dst: int, win: str, offset: int, values
    ) -> Generator[Any, Any, RMAHandle]:
        block = np.asarray(values, dtype=np.float64)
        if block.ndim == 0:
            block = block.reshape(1)
        handle = self._issue(op, counter, dst)
        hid = self._st.next_hid - 1
        yield self._chg_issue
        n = len(block)
        if n <= _SHORT_DOUBLES:
            yield from self.ep.send_short(
                dst,
                "rma.put",
                (win, offset, tuple(float(v) for v in block), hid, flags),
                nbytes=_PUT_BYTES + 8 * (n - 1),
            )
        else:
            yield from self.ep.send_bulk(
                dst,
                "rma.bulk_put",
                (win, offset, hid, flags),
                data=block.tobytes(),
                nbytes=BULK_HEADER_BYTES + _PUT_BYTES + 8 * (n - 1),
            )
        # the send charge elapsed: the NIC holds the data, source buffer free
        handle.local_done = True
        return handle

    def put(
        self, dst: int, win: str, offset: int, values, *, notify: bool = False
    ) -> Generator[Any, Any, RMAHandle]:
        """One-sided write of ``values`` into ``win[offset:]`` on ``dst``."""
        flags = _F_NOTIFY if notify else 0
        return (yield from self._put_like("put", CounterNames.RMA_PUT, flags, dst, win, offset, values))

    def accumulate(
        self, dst: int, win: str, offset: int, values, *, notify: bool = False
    ) -> Generator[Any, Any, RMAHandle]:
        """One-sided ``+=`` into ``win[offset:]`` on ``dst`` (atomic: each
        simulated node is single-core, so read-modify-write cannot tear)."""
        flags = _F_ACC | (_F_NOTIFY if notify else 0)
        return (yield from self._put_like("acc", CounterNames.RMA_ACC, flags, dst, win, offset, values))

    def get_async(
        self, dst: int, win: str, offset: int, count: int
    ) -> Generator[Any, Any, RMAHandle]:
        """Split-phase one-sided read; ``wait_remote`` yields the block."""
        handle = self._issue("get", CounterNames.RMA_GET, dst)
        hid = self._st.next_hid - 1
        yield self._chg_issue
        yield from self.ep.send_short(
            dst, "rma.get", (win, offset, count, hid), nbytes=_GET_REQ_BYTES
        )
        handle.local_done = True  # a get has no source payload to protect
        return handle

    def get(self, dst: int, win: str, offset: int, count: int) -> Generator[Any, Any, np.ndarray]:
        """Blocking one-sided read of ``count`` doubles."""
        handle = yield from self.get_async(dst, win, offset, count)
        yield from self.wait_remote(handle)
        assert handle.value is not None
        return handle.value

    # ---------------------------------------------------------- completion

    def wait_local(self, handle: RMAHandle) -> Generator[Any, Any, None]:
        yield from self.ep.poll_until(lambda: handle.local_done)

    def wait_remote(self, handle: RMAHandle) -> Generator[Any, Any, None]:
        yield from self.ep.poll_until(lambda: handle.remote_done)

    def flush(self) -> Generator[Any, Any, None]:
        """Block until every operation this node issued is remotely complete."""
        st = self._st
        yield from self.ep.poll_until(lambda: st.inflight == 0)

    def notify_count(self, win: str) -> int:
        """Cumulative count of notified puts landed in local window ``win``."""
        return self._st.notify.get(win, 0)

    def wait_notify(self, win: str, count: int) -> Generator[Any, Any, None]:
        """Block until the cumulative notify count for ``win`` reaches
        ``count`` (cumulative, so waiters never race a reset)."""
        st = self._st
        yield from self.ep.poll_until(lambda: st.notify.get(win, 0) >= count)


class RMARuntime:
    """Installs one-sided RMA on a cluster; see :func:`install_rma`."""

    def __init__(self, cluster: Cluster, *, endpoints: list | None = None,
                 reliable: bool = False, retry: Any = None):
        self.cluster = cluster
        #: share a runtime's endpoints (one msg-layer per node) or install
        self.endpoints = (
            endpoints if endpoints is not None
            else install_am(cluster, reliable=reliable, retry=retry)
        )
        # per-cluster constants (every node shares the cluster's cost
        # model): the pin/placement price and the one issue Charge
        rc = cluster.costs.runtime
        self._per_byte = rc.copy_per_byte
        self._chg_issue = Charge(rc.sc_issue, Category.RUNTIME)
        self._state = [_RMAState() for _ in cluster.nodes]
        self._procs = [RMAProcess(self, n.nid) for n in cluster.nodes]
        handlers = {
            "rma.put": self._h_put,
            "rma.bulk_put": self._h_bulk_put,
            "rma.get": self._h_get,
            "rma.done": self._h_done,
            "rma.get_data": self._h_get_data,
        }
        for ep in self.endpoints:
            ep.register_handlers(handlers)

    # ------------------------------------------------------------ structure

    @property
    def nprocs(self) -> int:
        return self.cluster.size

    def process(self, nid: int) -> RMAProcess:
        return self._procs[nid]

    def state(self, nid: int) -> _RMAState:
        return self._state[nid]

    # ----------------------------------------------------- target-side NIC

    def _window_block(self, nid: int, win: str, offset: int, count: int) -> np.ndarray:
        st = self._state[nid]
        try:
            arr = st.windows[win].array
        except KeyError:
            raise RuntimeStateError(
                f"one-sided access to unregistered window {win!r} on node {nid}"
            ) from None
        if not 0 <= offset <= offset + count <= len(arr):
            raise GlobalPointerError(
                f"RMA access {win}[{offset}:{offset + count}] out of bounds "
                f"for window of {len(arr)} on node {nid}"
            )
        return arr

    def _apply_put(
        self, ep, src: int, win: str, offset: int, block: np.ndarray, hid: int, flags: int
    ) -> None:
        """Target-side data placement (event context: NIC work, no thread)."""
        nid = ep.node.nid
        arr = self._window_block(nid, win, offset, len(block))
        ep.node.charge(Category.NET, 8.0 * len(block) * self._per_byte)
        if flags & _F_ACC:
            arr[offset : offset + len(block)] += block
        else:
            arr[offset : offset + len(block)] = block
        if flags & _F_NOTIFY:
            st = self._state[nid]
            st.notify[win] = st.notify.get(win, 0) + 1
            ep.node.counters.counts[CounterNames.RMA_NOTIFY] += 1
        ep.control_send(src, "rma.done", (hid,), nbytes=_DONE_BYTES)

    def _h_put(self, ep, src, frame):
        win, offset, values, hid, flags = frame.args
        self._apply_put(ep, src, win, offset, np.asarray(values, dtype=np.float64), hid, flags)
        return
        yield  # pragma: no cover - marks this body as a generator

    def _h_bulk_put(self, ep, src, frame):
        win, offset, hid, flags = frame.args
        block = np.frombuffer(bytes(frame.data), dtype=np.float64)
        self._apply_put(ep, src, win, offset, block, hid, flags)
        return
        yield  # pragma: no cover - marks this body as a generator

    def _h_get(self, ep, src, frame):
        win, offset, count, hid = frame.args
        nid = ep.node.nid
        arr = self._window_block(nid, win, offset, count)
        ep.node.charge(Category.NET, 8.0 * count * self._per_byte)
        block = arr[offset : offset + count]
        if count <= _SHORT_DOUBLES:
            ep.control_send(
                src, "rma.get_data", (hid, tuple(float(v) for v in block)),
                nbytes=_DATA_BYTES + 8 * (count - 1),
            )
        else:
            ep.control_send(
                src, "rma.get_data", (hid,), data=block.tobytes(),
                nbytes=BULK_HEADER_BYTES + _DATA_BYTES + 8 * (count - 1), bulk=True,
            )
        return
        yield  # pragma: no cover - marks this body as a generator

    # ----------------------------------------------------- source-side NIC

    def _complete(self, ep, hid: int, value: np.ndarray | None) -> None:
        nid = ep.node.nid
        st = self._state[nid]
        handle = st.handles.pop(hid)
        handle.value = value
        handle.remote_done = True
        st.inflight -= 1
        proc = self._procs[nid]
        if proc._h_remote is not None:
            proc._h_remote.record(ep.node.sim._now - handle.issued_at)
        if handle._sid != -1:
            ep.node._spans.end(handle._sid, ep.node.sim._now)

    def _h_done(self, ep, src, frame):
        (hid,) = frame.args
        self._complete(ep, hid, None)
        return
        yield  # pragma: no cover - marks this body as a generator

    def _h_get_data(self, ep, src, frame):
        if len(frame.args) == 2:
            hid, values = frame.args
            block = np.asarray(values, dtype=np.float64)
        else:
            (hid,) = frame.args
            block = np.frombuffer(bytes(frame.data), dtype=np.float64).copy()
        self._complete(ep, hid, block)
        return
        yield  # pragma: no cover - marks this body as a generator


def install_rma(
    cluster: Cluster,
    *,
    endpoints: list | None = None,
    reliable: bool = False,
    retry: Any = None,
) -> RMARuntime:
    """Install the RMA layer.  Pass ``endpoints`` to share an existing
    runtime's AM layer (exactly one messaging layer may own a node's
    inbox); otherwise a fresh AM layer is installed."""
    return RMARuntime(cluster, endpoints=endpoints, reliable=reliable, retry=retry)
