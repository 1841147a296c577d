"""CC++ runtime wiring: object tables, contexts, startup.

A :class:`CCppRuntime` owns a cluster and installs everything a CC++
program needs: AM endpoints, data memories, stub tables, buffer managers,
the RMI engine, one polling thread per node, and a builtin node-manager
processor object (obj id 0) through which remote processor objects are
created.

Ablation switches (used by ``repro.experiments.ablations``):

* ``stub_caching=False`` — every RMI takes the cold name-resolution path.
* ``persistent_buffers=False`` — every payload pays the static-area copy.
* ``reception="interrupt"`` — per-message software interrupts instead of
  the polling discipline (what the polling thread exists to avoid).
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.am import AMEndpoint, install_am
from repro.ccpp.buffers import BufferManager
from repro.ccpp.gp import DataGlobalPtr, ObjectGlobalPtr
from repro.ccpp.memory import CCMemory
from repro.ccpp.names import MethodName
from repro.ccpp.par import par, parfor, spawn_thread
from repro.ccpp.polling import polling_loop
from repro.ccpp.procobj import ProcessorObject, remote, remote_methods_of
from repro.ccpp.registry import processor_class, registered_class
from repro.ccpp.rmi import RMIEngine, WaitMode
from repro.ccpp.stubs import StubTable
from repro.errors import RuntimeStateError
from repro.machine.cluster import Cluster
from repro.sim.account import Category
from repro.sim.effects import Charge
from repro.threads.sync import Lock, SyncCell
from repro.threads.thread import UThread

__all__ = ["CCppRuntime", "CCContext", "make_tham_runtime"]

_ATOMIC_LOCK_ATTR = "_ccpp_atomic_lock"


class _NodeManager(ProcessorObject):
    """Builtin processor object (obj id 0) present on every node.

    Bootstraps remote processor-object creation: ``create`` is itself an
    ordinary threaded RMI.
    """

    @remote(threaded=True)
    def create(self, cls_name: str, ctor_args: list) -> Generator[Any, Any, int]:
        obj_id = self.ctx.rt._create_local(self.ctx.nid, cls_name, tuple(ctor_args))
        return obj_id
        yield  # pragma: no cover - marks this body as a generator

    @remote
    def ping(self) -> int:
        """Null non-threaded method (the 0-Word micro-benchmark target)."""
        return 0


class _ObjectTable:
    """Per-node processor-object table (read-mostly; reads are lock-free,
    as in the real runtime where the table only grows)."""

    def __init__(self, nid: int):
        self.nid = nid
        self._objects: list[ProcessorObject] = []

    def add(self, obj: ProcessorObject) -> int:
        self._objects.append(obj)
        return len(self._objects) - 1

    def get(self, obj_id: int) -> ProcessorObject:
        try:
            return self._objects[obj_id]
        except IndexError:
            raise RuntimeStateError(
                f"node {self.nid}: no processor object {obj_id}"
            ) from None

    def __len__(self) -> int:
        return len(self._objects)


class CCppRuntime:
    """Installs and drives CC++/ThAM on a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        stub_caching: bool = True,
        persistent_buffers: bool = True,
        start_polling: bool = True,
        reception: str = "polling",
        reliable: bool = False,
        retry: Any = None,
    ):
        self.cluster = cluster
        self.stub_caching = stub_caching
        self.persistent_buffers = persistent_buffers
        self.reception = reception
        self.endpoints: list[AMEndpoint] = install_am(
            cluster, reception=reception, reliable=reliable, retry=retry
        )
        self.memories = [CCMemory(n) for n in cluster.nodes]
        self.stub_tables = [StubTable(n) for n in cluster.nodes]
        self.buffer_managers = [BufferManager(n) for n in cluster.nodes]
        self._tables = [_ObjectTable(n.nid) for n in cluster.nodes]
        self.engine = RMIEngine(self)
        self.contexts = [CCContext(self, nid) for nid in range(cluster.size)]
        processor_class(_NodeManager)  # idempotent; survives registry resets
        for nid in range(cluster.size):
            manager_id = self._create_local(nid, "_NodeManager", ())
            assert manager_id == 0
        self.polling_threads: list[UThread] = []
        if start_polling:
            for node in cluster.nodes:
                thr = cluster.launch(
                    node.nid, polling_loop(node), f"poller@{node.nid}", daemon=True
                )
                self.polling_threads.append(thr)

    # --------------------------------------------------------------- lookups

    @property
    def nprocs(self) -> int:
        return self.cluster.size

    def context(self, nid: int) -> "CCContext":
        return self.contexts[nid]

    def object_table(self, nid: int) -> _ObjectTable:
        return self._tables[nid]

    def cc_memory(self, nid: int) -> CCMemory:
        return self.memories[nid]

    def atomic_lock(self, obj: ProcessorObject) -> Lock:
        try:
            return getattr(obj, _ATOMIC_LOCK_ATTR)
        except AttributeError:
            raise RuntimeStateError(
                f"{type(obj).__name__} was not created through the runtime"
            ) from None

    def manager_ptr(self, nid: int) -> ObjectGlobalPtr:
        """Global pointer to node ``nid``'s builtin manager object."""
        return ObjectGlobalPtr(nid, 0, "_NodeManager")

    # --------------------------------------------------------------- objects

    def _register_class_stubs(self, nid: int, cls: type[ProcessorObject]) -> None:
        """Register every remote method of ``cls`` under every processor-
        class name in its MRO, so base-class-typed pointers dispatch."""
        stubs = self.stub_tables[nid]
        methods = remote_methods_of(cls)
        for ancestor in cls.__mro__:
            if ancestor is ProcessorObject or not issubclass(ancestor, ProcessorObject):
                continue
            for mname, spec in methods.items():
                if getattr(ancestor, mname, None) is None:
                    continue
                stubs.register_local(
                    MethodName.of(ancestor.__name__, mname),
                    threaded=spec.threaded,
                    atomic=spec.atomic,
                )

    def _create_local(self, nid: int, cls_name: str, ctor_args: tuple) -> int:
        cls = registered_class(cls_name)
        # bind the context *before* __init__ so constructors can allocate
        # data regions on their node (alloc_data needs ctx)
        obj = cls.__new__(cls)
        obj_id = self._tables[nid].add(obj)
        obj._bind(self.contexts[nid], obj_id)
        obj.__init__(*ctor_args)
        setattr(obj, _ATOMIC_LOCK_ATTR, Lock(self.cluster.nodes[nid], f"atomic-{cls_name}-{obj_id}"))
        self._register_class_stubs(nid, cls)
        return obj_id

    # --------------------------------------------------------------- running

    def launch(
        self,
        nid: int,
        program: Callable[["CCContext"], Generator[Any, Any, Any]],
        name: str = "",
    ) -> UThread:
        """Start an MPMD program on node ``nid`` (programs may differ per
        node — that is the point of the model)."""
        return self.cluster.launch(
            nid, program(self.contexts[nid]), name or f"ccpp@{nid}"
        )

    def run(self) -> float:
        return self.cluster.run()


def make_tham_runtime(
    n_nodes: int, *, reliable: bool = False, retry: Any = None, **machine: Any
) -> CCppRuntime:
    """Build a cluster (``machine`` is :class:`Cluster`'s keywords) and
    install CC++/ThAM on it — the default ``runtime_factory`` of the CC++
    application harnesses; ``make_nexus_runtime`` is the other one."""
    return CCppRuntime(Cluster(n_nodes, **machine), reliable=reliable, retry=retry)


class CCContext:
    """CC++ as seen by code running on one node."""

    def __init__(self, rt: CCppRuntime, nid: int):
        self.rt = rt
        self.nid = nid
        self.node = rt.cluster.nodes[nid]
        self.mem = rt.memories[nid]
        self.ep = rt.endpoints[nid]

    @property
    def my_node(self) -> int:
        return self.nid

    @property
    def nprocs(self) -> int:
        return self.rt.nprocs

    # ------------------------------------------------------------------ time

    def charge(self, us: float) -> Generator[Any, Any, None]:
        """Account application CPU work."""
        yield Charge(us, Category.CPU)

    # ------------------------------------------------------------------- RMI

    def rmi(
        self,
        gptr: ObjectGlobalPtr,
        method: str,
        *args: Any,
        wait: WaitMode = WaitMode.PARK,
        deadline_us: float | None = None,
    ) -> Generator[Any, Any, Any]:
        """Invoke ``gptr->method(*args)`` and return its result.

        ``deadline_us`` bounds the call in virtual time; past it the call
        raises :class:`~repro.errors.DeadlineExceededError` instead of
        hanging (and a call to a peer the failure detector has declared
        dead raises :class:`~repro.errors.NodeUnreachableError`)."""
        return (
            yield from self.rt.engine.invoke(
                self, gptr, method, args, wait=wait, deadline_us=deadline_us
            )
        )

    def rmi_async(
        self, gptr: ObjectGlobalPtr, method: str, *args: Any
    ) -> Generator[Any, Any, None]:
        """One-sided ``gptr->method(*args)``: no reply, no result.  Use
        sync variables or counters to observe completion."""
        yield from self.rt.engine.invoke_async(self, gptr, method, args)

    def rmi_future(
        self,
        gptr: ObjectGlobalPtr,
        method: str,
        *args: Any,
        deadline_us: float | None = None,
    ):
        """CC++ ``spawn``: start the RMI on a fresh thread, get a future
        back immediately; ``yield from fut.get()`` to resolve."""
        from repro.ccpp.future import rmi_future

        return (
            yield from rmi_future(self, gptr, method, *args, deadline_us=deadline_us)
        )

    def create(
        self, nid: int, cls: type[ProcessorObject] | str, *ctor_args: Any
    ) -> Generator[Any, Any, ObjectGlobalPtr]:
        """Create a processor object on node ``nid``; returns its global
        pointer.  Remote creation is itself an RMI to the node manager."""
        cls_name = cls if isinstance(cls, str) else cls.__name__
        if nid == self.nid:
            yield Charge(self.node.costs.runtime.rmi_dispatch, Category.RUNTIME)
            obj_id = self.rt._create_local(nid, cls_name, ctor_args)
        else:
            obj_id = yield from self.rmi(
                self.rt.manager_ptr(nid), "create", cls_name, list(ctor_args)
            )
        return ObjectGlobalPtr(nid, int(obj_id), cls_name)

    # ------------------------------------------------------- data global ptr

    def gp_read(
        self, gp: DataGlobalPtr, *, wait: WaitMode = WaitMode.PARK
    ) -> Generator[Any, Any, float]:
        return (yield from self.rt.engine.gp_read(self, gp, wait=wait))

    def gp_write(
        self, gp: DataGlobalPtr, value: float, *, wait: WaitMode = WaitMode.PARK
    ) -> Generator[Any, Any, None]:
        return (yield from self.rt.engine.gp_write(self, gp, value, wait=wait))

    def data_ptr(self, region: str, offset: int = 0) -> DataGlobalPtr:
        """Pointer to this node's own data (hand it to other nodes)."""
        return DataGlobalPtr(self.nid, region, offset)

    # ----------------------------------------------------------- concurrency

    def spawn(self, body: Generator[Any, Any, Any], name: str = "spawn"):
        return spawn_thread(self, body, name)

    def par(self, bodies):
        return par(self, bodies)

    def parfor(self, indices, body):
        return parfor(self, indices, body)

    def sync_cell(self, name: str = "sync") -> SyncCell:
        """A write-once CC++ ``sync`` variable on this node."""
        return SyncCell(self.node, name)

    def poll(self) -> Generator[Any, Any, int]:
        return (yield from self.ep.poll())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CCContext node={self.nid}/{self.nprocs}>"
