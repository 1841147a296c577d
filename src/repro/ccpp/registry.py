"""Processor-object class registry.

CC++ applications are composed of multiple, separately compiled program
images; classes must therefore be locatable *by name* at runtime (the
method-name-resolution problem of §3).  Every node shares this registry —
it models each program image linking the same class code, not shared
memory.
"""

from __future__ import annotations

from typing import TypeVar

from repro.ccpp.procobj import ProcessorObject, remote_methods_of
from repro.errors import RuntimeStateError

__all__ = ["processor_class", "registered_class", "registered_names"]

_classes: dict[str, type[ProcessorObject]] = {}

T = TypeVar("T", bound=type[ProcessorObject])


def processor_class(cls: T) -> T:
    """Class decorator: register a :class:`ProcessorObject` subclass.

    Idempotent for the same class object; re-registering a *different*
    class under the same name is an error (two images disagreeing about a
    type is a link error, not something to paper over).
    """
    if not issubclass(cls, ProcessorObject):
        raise RuntimeStateError(
            f"{cls.__name__} must derive from ProcessorObject to be a processor class"
        )
    existing = _classes.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise RuntimeStateError(f"processor class {cls.__name__!r} already registered")
    _classes[cls.__name__] = cls
    # fail fast on malformed @remote usage
    remote_methods_of(cls)
    return cls


def registered_class(name: str) -> type[ProcessorObject]:
    try:
        return _classes[name]
    except KeyError:
        raise RuntimeStateError(f"no processor class registered as {name!r}") from None


def registered_names() -> list[str]:
    return sorted(_classes)
