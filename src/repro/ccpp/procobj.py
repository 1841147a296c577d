"""Processor objects and the ``@remote`` method decorator.

A CC++ *processor object* abstracts one address space: its public methods
are callable through global pointers from any other processor object.
Here a processor object is a Python class deriving from
:class:`ProcessorObject`; methods exposed for RMI are marked with
:func:`remote`, which records the dispatch mode the paper distinguishes:

* ``@remote()`` — non-threaded: the stub runs directly in the AM handler
  (legal only for methods that never block),
* ``@remote(threaded=True)`` — a fresh thread runs the method,
* ``@remote(atomic=True)`` — threaded, and the method body holds the
  object's atomicity lock (CC++ ``atomic`` member functions).

Method bodies may be plain functions or generators; generator bodies can
charge CPU time, issue nested RMIs, block on sync variables, etc.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import RuntimeStateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ccpp.runtime import CCContext

__all__ = ["ProcessorObject", "remote", "RemoteSpec", "remote_methods_of"]

_SPEC_ATTR = "__ccpp_remote_spec__"


@dataclass(frozen=True, slots=True)
class RemoteSpec:
    """Dispatch metadata attached to a remote-callable method."""

    threaded: bool = False
    atomic: bool = False

    @property
    def needs_thread(self) -> bool:
        return self.threaded or self.atomic


def remote(
    _fn: Callable[..., Any] | None = None,
    *,
    threaded: bool = False,
    atomic: bool = False,
) -> Callable[..., Any]:
    """Mark a method remote-callable.  Usable bare or with options."""

    def mark(fn: Callable[..., Any]) -> Callable[..., Any]:
        setattr(fn, _SPEC_ATTR, RemoteSpec(threaded=threaded, atomic=atomic))
        return fn

    return mark(_fn) if _fn is not None else mark


def remote_methods_of(cls: type) -> dict[str, RemoteSpec]:
    """All ``@remote`` methods of a class (including inherited ones —
    processor object types can be inherited, per the paper)."""
    out: dict[str, RemoteSpec] = {}
    for name in dir(cls):
        if name.startswith("__"):
            continue
        fn = getattr(cls, name, None)
        spec = getattr(fn, _SPEC_ATTR, None)
        if spec is not None:
            out[name] = spec
    return out


class ProcessorObject:
    """Base class for CC++ processor objects.

    The runtime injects ``ctx`` (the node's :class:`CCContext`) and
    ``obj_id`` after construction; ``__init__`` of subclasses receives
    only the marshalled constructor arguments.
    """

    ctx: "CCContext"
    obj_id: int

    def _bind(self, ctx: "CCContext", obj_id: int) -> None:
        self.ctx = ctx
        self.obj_id = obj_id

    @property
    def my_node(self) -> int:
        try:
            return self.ctx.nid
        except AttributeError:
            raise RuntimeStateError(
                f"{type(self).__name__} used before the runtime bound it"
            ) from None

    def alloc_data(self, region: str, size: int, dtype: str = "float64"):
        """Allocate a named data region on this object's node; elements are
        addressable remotely via :class:`~repro.ccpp.gp.DataGlobalPtr`, and
        ``self.ctx.mem.region(region)`` views it as a NumPy array."""
        self.ctx.mem.alloc(region, size, dtype)

    def data_ptr(self, region: str, offset: int = 0):
        """A global pointer to this node's ``region[offset]``."""
        from repro.ccpp.gp import DataGlobalPtr

        return DataGlobalPtr(self.my_node, region, offset)
