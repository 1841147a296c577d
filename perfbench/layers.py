"""Host time and exact counts by layer, taken from outside the program.

Two instruments, both used only in the traced pass of a workload:

* :class:`LayerProfiler` runs a unit under ``cProfile`` (every thread the
  unit's set-up starts included) and :func:`attribute` groups self time by
  the ``src/repro`` package of each function's file.  Self time of
  builtins, C extensions, numpy and the standard library is charged to
  the layer that called them, through the profile's caller edges.
* :class:`Handles` wraps the public ``Cluster`` and ``ResultCache``
  constructors so the benchmark keeps a handle on every one a unit builds,
  and reads the program's own counters off them when the unit is over.

Nothing under ``src/`` knows about either.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sysconfig
import threading
import time
from typing import Any

__all__ = [
    "LAYERS",
    "OTHER",
    "LayerProfiler",
    "Handles",
    "attribute",
    "default_library_roots",
    "span_tree",
]

#: the packages under src/repro that count as layers, bottom of the stack first
LAYERS = (
    "sim", "threads", "machine", "am", "marshal", "splitc", "ccpp", "rma",
    "apps", "obs", "experiments", "service",
)
OTHER = "other"

#: how far library time is chased up library-calls-library chains
_MAX_CALLER_DEPTH = 8


def default_library_roots() -> tuple[str, ...]:
    """Directories whose code is library code: the standard library and
    site-packages.  Time spent there belongs to whoever called it."""
    paths = sysconfig.get_paths()
    return tuple(sorted({paths[k] for k in ("stdlib", "platstdlib", "purelib", "platlib")}))


def _classify(filename: str, repro_root: str, library_roots: tuple[str, ...]) -> str | None:
    """A layer name, ``OTHER``, or None when the time belongs to the caller."""
    if filename in ("~", "") or filename.startswith("<"):
        return None  # builtin / C function / exec'd string
    path = os.path.realpath(filename)
    if path.startswith(repro_root + os.sep):
        package = path[len(repro_root) + 1:].split(os.sep, 1)[0]
        return package if package in LAYERS else OTHER
    if any(path.startswith(root + os.sep) for root in library_roots):
        return None
    return OTHER


def attribute(
    stats: dict, repro_root: str, library_roots: tuple[str, ...] | None = None
) -> dict[str, dict[str, float]]:
    """Group a ``pstats``-format profile by layer.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    as ``pstats.Stats(...).stats`` does.  Returns, for every layer and
    ``other``, ``self_s`` (self seconds, library time folded into the
    caller), ``calls`` (calls of the layer's own functions) and
    ``self_share`` (``self_s`` over the total; the shares sum to 1).
    """
    repro_root = os.path.realpath(repro_root)
    if library_roots is None:
        library_roots = default_library_roots()
    library_roots = tuple(os.path.realpath(root) for root in library_roots)
    kinds = {
        func: _classify(func[0], repro_root, library_roots) for func in stats
    }
    out = {name: {"self_s": 0.0, "calls": 0} for name in (*LAYERS, OTHER)}

    def owners(func: tuple, path: tuple) -> dict[str, float] | None:
        """Which layers a function's self time belongs to, as shares; None
        when every way up from it leads back into ``path``."""
        kind = kinds.get(func, OTHER)
        if kind is not None:
            return {kind: 1.0}
        # library code: its time belongs to whoever called it.  Edges back
        # into the chain are dropped and the rest renormalised (json's
        # encoder, say, is a cycle of generators with one way in).
        callers = stats[func][4] if func in stats else {}
        if len(path) >= _MAX_CALLER_DEPTH:
            return None
        shares: dict[str, float] = {}
        weight = 0.0
        for caller, edge in callers.items():
            if edge[2] <= 0.0 or caller == func or caller in path:
                continue
            above = owners(caller, (*path, func))
            if above is None:
                continue
            weight += edge[2]
            for layer, share in above.items():
                shares[layer] = shares.get(layer, 0.0) + share * edge[2]
        if weight <= 0.0:
            return None
        return {layer: share / weight for layer, share in shares.items()}

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        kind = kinds[func]
        if kind is not None:
            out[kind]["calls"] += nc
        for layer, share in (owners(func, ()) or {OTHER: 1.0}).items():
            out[layer]["self_s"] += tt * share

    total = sum(entry["self_s"] for entry in out.values())
    for entry in out.values():
        entry["self_share"] = entry["self_s"] / total if total > 0 else 0.0
    return out


class LayerProfiler:
    """``cProfile`` over the calling thread and every thread started while
    armed.  The timer is per-thread CPU time, so a thread blocked on a
    socket or a condition variable accrues nothing and the merged profile
    is CPU seconds by function, whichever thread ran it."""

    def __init__(self) -> None:
        self._profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _new_profile(self) -> cProfile.Profile:
        profile = cProfile.Profile(time.thread_time_ns, 1e-9)
        with self._lock:
            self._profiles.append(profile)
        return profile

    def _bootstrap(self, frame: Any, event: str, arg: Any) -> None:
        # first profile event of a new thread: enabling the thread's own
        # profile replaces this hook for that thread
        self._new_profile().enable()

    def arm_threads(self) -> None:
        """Profile every thread started from now on, from its first call."""
        threading.setprofile(self._bootstrap)

    def disarm_threads(self) -> None:
        threading.setprofile(None)

    def run(self, fn) -> Any:
        """Call ``fn()`` with the calling thread profiled."""
        profile = self._new_profile()
        profile.enable()
        try:
            return fn()
        finally:
            profile.disable()

    def stats(self) -> dict:
        """The merged ``pstats``-format profile.  Call once every armed
        thread has ended."""
        with self._lock:
            profiles = list(self._profiles)
        if not profiles:
            return {}
        merged = pstats.Stats(profiles[0])
        for profile in profiles[1:]:
            merged.add(profile)
        return merged.stats


class Handles:
    """Keep a handle on every ``Cluster`` and ``ResultCache`` built inside
    the ``with`` block."""

    def __init__(self) -> None:
        self.clusters: list[Any] = []
        self.caches: list[Any] = []
        self._originals: list[tuple[type, Any]] = []

    def _record(self, cls: type, into: list) -> None:
        original = cls.__init__

        def recording_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            into.append(obj)

        self._originals.append((cls, original))
        cls.__init__ = recording_init

    def __enter__(self) -> "Handles":
        from repro.experiments.cache import ResultCache
        from repro.machine.cluster import Cluster

        self._record(Cluster, self.clusters)
        self._record(ResultCache, self.caches)
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in self._originals:
            cls.__init__ = original
        self._originals.clear()

    def counts(self) -> dict[str, float]:
        """Sums of the program's own counters over every handle."""
        from repro.sim.account import CounterNames as C

        engine = {"events_fired": 0, "heap_fired": 0, "inline_advances": 0,
                  "immediate_fired": 0}
        names: dict[str, int] = {}
        pool = {"leases": 0, "reuses": 0}
        packets = nbytes = 0
        virt_us = 0.0
        for cluster in self.clusters:
            for key, value in cluster.sim.fastpath_stats().items():
                engine[key] += value
            virt_us += cluster.sim.now
            packets += cluster.network.packets_sent
            nbytes += cluster.network.bytes_carried
            for key, value in cluster.aggregate_counters().counts.items():
                names[key] = names.get(key, 0) + value
            for node in cluster.nodes:
                stats = node.marshal_pool.stats()
                pool["leases"] += stats["leases"]
                pool["reuses"] += stats["reuses"]

        def ratio(hit: int, total: int) -> float:
            return hit / total if total else 0.0

        get = names.get
        warm, cold = get(C.RMI_WARM, 0), get(C.RMI_COLD, 0)
        reuse, alloc = get(C.RBUF_REUSE, 0), get(C.RBUF_ALLOC, 0)
        msgs = get(C.MSG_SHORT, 0) + get(C.MSG_BULK, 0)
        return {
            "sim.events": engine["events_fired"],
            "sim.heap_events": engine["heap_fired"],
            "sim.inline_advances": engine["inline_advances"],
            "sim.immediate_events": engine["immediate_fired"],
            "sim.virt_us": virt_us,
            "threads.creates": get(C.THREAD_CREATE, 0),
            "threads.yields": get(C.THREAD_YIELD, 0),
            "threads.sync_ops": get(C.THREAD_SYNC_OP, 0),
            "threads.lock_contended": get(C.LOCK_CONTENDED, 0),
            "machine.packets": packets,
            "machine.bytes": nbytes,
            "am.short_msgs": get(C.MSG_SHORT, 0),
            "am.bulk_msgs": get(C.MSG_BULK, 0),
            "am.polls": get(C.POLLS, 0),
            "am.poll_hit_ratio": ratio(msgs, get(C.POLLS, 0)),
            "marshal.pool_reuse_ratio": ratio(pool["reuses"], pool["leases"]),
            "ccpp.rmi_warm": warm,
            "ccpp.rmi_cold": cold,
            "ccpp.stub_hit_ratio": ratio(warm, warm + cold),
            "ccpp.rbuf_reuse_ratio": ratio(reuse, reuse + alloc),
            "rma.puts": get(C.RMA_PUT, 0),
            "rma.gets": get(C.RMA_GET, 0),
            "rma.accs": get(C.RMA_ACC, 0),
            "rma.notifies": get(C.RMA_NOTIFY, 0),
            "experiments.cache_hits": sum(c.hits for c in self.caches),
            "experiments.cache_misses": sum(c.misses for c in self.caches),
            "experiments.cache_stores": sum(c.stores for c in self.caches),
        }


def span_tree(workload: str, unit_s: float, layers: dict[str, dict[str, float]]) -> dict:
    """The traced unit as a two-level span tree: the unit, and under it one
    span per layer carrying that layer's self time and call count."""
    spans = [{"id": 0, "parent": None, "name": f"unit:{workload}",
              "start_s": 0.0, "end_s": unit_s}]
    for i, (name, entry) in enumerate(layers.items(), start=1):
        spans.append({
            "id": i, "parent": 0, "name": name,
            "self_s": entry["self_s"], "calls": entry["calls"],
        })
    return {"workload": workload, "spans": spans}
