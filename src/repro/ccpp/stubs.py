"""Method stub tables and the stub cache (§4, *Method Stub Caching*).

Each node keeps:

* a table of **local stubs** — every ``@remote`` method of every class
  registered on this node gets a small integer stub id (the stand-in for
  the stub's entry-point address), plus
* a **cache** indexed by (remote processor number, method-name hash).
  A valid entry holds the remote stub id and, once persistent buffers
  kick in, the remote R-buffer id for the method.

The initiator probes the cache: on a hit it ships the compact stub id;
on a miss it ships the full method name, the callee resolves it, and a
stub-update message back-fills the entry.  The table is guarded by a real
:class:`~repro.threads.sync.Lock` — its (uncontended) acquire/release
pairs are part of the thread-sync cost the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ccpp.names import method_hash
from repro.errors import RuntimeStateError
from repro.threads.sync import Lock

__all__ = ["StubTable", "CacheEntry", "LocalStub"]


@dataclass(slots=True)
class LocalStub:
    """One locally registered remote-callable method."""

    stub_id: int
    name: str          # 'Class::method'
    threaded: bool
    atomic: bool


@dataclass(slots=True)
class CacheEntry:
    """What the initiator knows about a remote method."""

    stub_id: int
    rbuf_id: int | None = None  # persistent R-buffer at the callee, if any


class StubTable:
    """Per-node stub registry + remote-entry cache."""

    SERVICE = "cc_stubs"

    def __init__(self, node) -> None:
        self.node = node
        self.lock = Lock(node, "stub-table")
        self._local_by_name: dict[str, LocalStub] = {}
        self._local_by_id: list[LocalStub] = []
        # (remote node, method-name hash) -> CacheEntry
        self._cache: dict[tuple[int, int], CacheEntry] = {}
        node.attach(self.SERVICE, self)

    # ------------------------------------------------------------ local side

    def register_local(self, name: str, *, threaded: bool, atomic: bool) -> LocalStub:
        """Idempotent: registering the same method twice returns the
        original stub (multiple objects of one class share stubs)."""
        existing = self._local_by_name.get(name)
        if existing is not None:
            if existing.threaded != threaded or existing.atomic != atomic:
                raise RuntimeStateError(
                    f"stub {name!r} re-registered with different dispatch mode"
                )
            return existing
        stub = LocalStub(len(self._local_by_id), name, threaded, atomic)
        self._local_by_id.append(stub)
        self._local_by_name[name] = stub
        return stub

    def resolve_name(self, name: str) -> LocalStub:
        """Callee-side cold-path resolution: method name -> stub."""
        try:
            return self._local_by_name[name]
        except KeyError:
            raise RuntimeStateError(
                f"node {self.node.nid}: no remote method {name!r} registered"
            ) from None

    def by_id(self, stub_id: int) -> LocalStub:
        try:
            return self._local_by_id[stub_id]
        except IndexError:
            raise RuntimeStateError(
                f"node {self.node.nid}: bad stub id {stub_id}"
            ) from None

    @property
    def local_count(self) -> int:
        return len(self._local_by_id)

    # ------------------------------------------------------------ cache side

    def probe(self, remote_node: int, name: str) -> CacheEntry | None:
        """Initiator-side cache probe (caller holds the table lock)."""
        return self._cache.get((remote_node, method_hash(name)))

    def install(self, remote_node: int, name: str, entry: CacheEntry) -> None:
        """Back-fill from a stub-update message."""
        self._cache[(remote_node, method_hash(name))] = entry

    def invalidate(self, remote_node: int, name: str) -> None:
        """Drop an entry (used by ablations and tests)."""
        self._cache.pop((remote_node, method_hash(name)), None)
