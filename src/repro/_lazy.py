"""PEP 562 lazy re-exports for the package ``__init__`` files.

A package that re-exports its submodules' names eagerly makes every
importer of *any* submodule pay for *all* of them (``import
repro.apps.em3d.graph`` used to load the CC++ runtime).  With::

    _EXPORTS = {"Em3dGraph": "repro.apps.em3d.graph", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

the public names stay where they were — ``from repro.apps.em3d import
Em3dGraph``, attribute access, ``dir()`` and ``__all__`` all work — but a
name's home module is imported on first access, and only that one.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from importlib import import_module
from typing import Any

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the module that defines it; a
    name mapped to ``<package>.<name>`` is that submodule itself.
    """

    def __getattr__(name: str) -> Any:
        try:
            home = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = import_module(home)
        value = module if home == f"{package}.{name}" else getattr(module, name)
        # cache: the next access is a plain attribute hit
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
