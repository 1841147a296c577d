"""Tagged object serialization.

Supports the CC++ argument model: arbitrary objects may cross address
spaces, each class providing its own serialization (here: registered
pack/unpack functions or a :class:`Marshallable` mixin).  Built-in support
covers ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
``tuple``/``list``/``dict`` and NumPy arrays (NumPy itself is never
imported here: while it is not loaded, no object can be a NumPy one).

This is *deep copy by value* — strictly more powerful than Split-C's
shallow global memory accesses, and correspondingly more expensive: the
runtimes charge per-argument and per-byte marshalling costs using the
sizes this module reports.

Dispatch is table-driven: each wire type has a pack function keyed by
exact ``type()`` in :data:`_PACK` (subtypes resolved once, then cached)
and an unpack function indexed by wire tag in :data:`_UNPACK`.  The RMI
fast path looks pack functions up *per call site* via :func:`pack_fn_for`
so a monomorphic call skips even the table probe.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from typing import Any

from repro.errors import MarshalError
from repro.marshal.packer import Packer, Unpacker
from repro.marshal.pool import BufferPool

__all__ = [
    "Marshallable",
    "register_serializer",
    "pack_object",
    "unpack_object",
    "pack_fn_for",
    "marshal_args",
    "unmarshal_args",
]

# wire tags
_T_NONE = 0
_T_BOOL = 1
_T_INT = 2
_T_FLOAT = 3
_T_STR = 4
_T_BYTES = 5
_T_TUPLE = 6
_T_LIST = 7
_T_DICT = 8
_T_NDARRAY = 9
_T_CUSTOM = 10


class Marshallable:
    """Mixin for user classes that cross address spaces by value.

    Subclasses implement :meth:`cc_pack` and :meth:`cc_unpack` and must be
    registered on every node's program image (done automatically the first
    time an instance is packed).
    """

    def cc_pack(self, p: Packer) -> None:
        raise NotImplementedError

    @classmethod
    def cc_unpack(cls, u: Unpacker) -> "Marshallable":
        raise NotImplementedError


# registry: type name -> (class-or-packfn, unpackfn)
_custom: dict[str, tuple[Callable[[Any, Packer], None], Callable[[Unpacker], Any]]] = {}


def register_serializer(
    name: str,
    pack: Callable[[Any, Packer], None],
    unpack: Callable[[Unpacker], Any],
    *,
    replace: bool = False,
) -> None:
    """Register pack/unpack functions for a custom wire-type ``name``."""
    if name in _custom and not replace:
        raise MarshalError(f"serializer {name!r} already registered")
    _custom[name] = (pack, unpack)


def _ensure_marshallable_registered(obj: Marshallable) -> str:
    name = type(obj).__qualname__
    if name not in _custom:
        cls = type(obj)
        register_serializer(name, lambda o, p: o.cc_pack(p), cls.cc_unpack)
    return name


# --------------------------------------------------------------- pack table


def _pack_none(p: Packer, obj: Any) -> None:
    p.put_u8(_T_NONE)


def _pack_bool(p: Packer, obj: Any) -> None:
    p.put_u8(_T_BOOL).put_u8(1 if obj else 0)


def _pack_int(p: Packer, obj: Any) -> None:
    p.put_u8(_T_INT).put_i64(int(obj))


def _pack_float(p: Packer, obj: Any) -> None:
    p.put_u8(_T_FLOAT).put_f64(float(obj))


def _pack_str(p: Packer, obj: Any) -> None:
    p.put_u8(_T_STR).put_str(obj)


def _pack_bytes(p: Packer, obj: Any) -> None:
    p.put_u8(_T_BYTES).put_bytes(obj)


def _pack_tuple(p: Packer, obj: Any) -> None:
    p.put_u8(_T_TUPLE).put_u32(len(obj))
    for item in obj:
        pack_object(p, item)


def _pack_list(p: Packer, obj: Any) -> None:
    p.put_u8(_T_LIST).put_u32(len(obj))
    for item in obj:
        pack_object(p, item)


def _pack_dict(p: Packer, obj: Any) -> None:
    p.put_u8(_T_DICT).put_u32(len(obj))
    for k, v in obj.items():
        pack_object(p, k)
        pack_object(p, v)


def _pack_ndarray(p: Packer, obj: Any) -> None:
    p.put_u8(_T_NDARRAY)
    p.put_ndarray(obj)


def _pack_marshallable(p: Packer, obj: Any) -> None:
    name = _ensure_marshallable_registered(obj)
    p.put_u8(_T_CUSTOM).put_str(name)
    _custom[name][0](obj, p)


#: exact-type dispatch; subtypes land here too, via :func:`_resolve_pack`
_PACK: dict[type, Callable[[Packer, Any], None]] = {
    type(None): _pack_none,
    bool: _pack_bool,
    int: _pack_int,
    float: _pack_float,
    str: _pack_str,
    bytes: _pack_bytes,
    bytearray: _pack_bytes,
    memoryview: _pack_bytes,
    tuple: _pack_tuple,
    list: _pack_list,
    dict: _pack_dict,
}


def _resolve_pack(tp: type) -> Callable[[Packer, Any], None]:
    """Slow path for types not (yet) in the table.  Walks the same
    ``isinstance`` chain the pre-table serializer used — order matters
    (``bool`` before ``int``; containers before ``Marshallable``) — and
    caches the winner so each concrete type resolves once per process.
    NumPy's types are tested only once NumPy is loaded."""
    np = sys.modules.get("numpy")
    if issubclass(tp, bool):
        fn = _pack_bool
    elif issubclass(tp, int) or (np is not None and issubclass(tp, np.integer)):
        fn = _pack_int
    elif issubclass(tp, float) or (np is not None and issubclass(tp, np.floating)):
        fn = _pack_float
    elif issubclass(tp, str):
        fn = _pack_str
    elif issubclass(tp, (bytes, bytearray, memoryview)):
        fn = _pack_bytes
    elif issubclass(tp, tuple):
        fn = _pack_tuple
    elif issubclass(tp, list):
        fn = _pack_list
    elif issubclass(tp, dict):
        fn = _pack_dict
    elif np is not None and issubclass(tp, np.ndarray):
        fn = _pack_ndarray
    elif issubclass(tp, Marshallable):
        fn = _pack_marshallable
    else:
        raise MarshalError(
            f"cannot marshal {tp.__qualname__}: register a serializer "
            "or derive from Marshallable"
        )
    _PACK[tp] = fn
    return fn


def pack_fn_for(tp: type) -> Callable[[Packer, Any], None]:
    """The pack function for exact type ``tp`` (resolving and caching it
    if needed).  Used by dispatch-caching call sites (the RMI fused path)
    that key on an argument-type tuple and want to skip per-call lookup."""
    fn = _PACK.get(tp)
    return fn if fn is not None else _resolve_pack(tp)


def pack_object(p: Packer, obj: Any) -> None:
    """Serialize one object (recursively) into ``p``."""
    fn = _PACK.get(type(obj))
    if fn is None:
        fn = _resolve_pack(type(obj))
    fn(p, obj)


# ------------------------------------------------------------- unpack table


def _unpack_none(u: Unpacker) -> Any:
    return None


def _unpack_bool(u: Unpacker) -> Any:
    return bool(u.get_u8())


def _unpack_int(u: Unpacker) -> Any:
    return u.get_i64()


def _unpack_float(u: Unpacker) -> Any:
    return u.get_f64()


def _unpack_str(u: Unpacker) -> Any:
    return u.get_str()


def _unpack_bytes(u: Unpacker) -> Any:
    return u.get_bytes()


def _unpack_tuple(u: Unpacker) -> Any:
    n = u.get_u32()
    return tuple(unpack_object(u) for _ in range(n))


def _unpack_list(u: Unpacker) -> Any:
    n = u.get_u32()
    return [unpack_object(u) for _ in range(n)]


def _unpack_dict(u: Unpacker) -> Any:
    n = u.get_u32()
    out = {}
    for _ in range(n):
        k = unpack_object(u)
        out[k] = unpack_object(u)
    return out


def _unpack_ndarray(u: Unpacker) -> Any:
    return u.get_ndarray()


def _unpack_custom(u: Unpacker) -> Any:
    name = u.get_str()
    try:
        return _custom[name][1](u)
    except KeyError:
        raise MarshalError(f"no serializer registered for {name!r}") from None


#: tag-indexed unpack dispatch (tag values are dense, starting at 0)
_UNPACK: tuple[Callable[[Unpacker], Any], ...] = (
    _unpack_none,
    _unpack_bool,
    _unpack_int,
    _unpack_float,
    _unpack_str,
    _unpack_bytes,
    _unpack_tuple,
    _unpack_list,
    _unpack_dict,
    _unpack_ndarray,
    _unpack_custom,
)


def unpack_object(u: Unpacker) -> Any:
    """Inverse of :func:`pack_object`."""
    tag = u.get_u8()
    if tag >= len(_UNPACK):
        raise MarshalError(f"unknown wire tag {tag}")
    return _UNPACK[tag](u)


# ------------------------------------------------------------ argument tuples


def marshal_args(
    args: tuple[Any, ...], *, pool: BufferPool | None = None
) -> tuple[bytes | memoryview, int]:
    """Serialize a positional argument tuple.

    Returns ``(payload, n_args)``; the runtime charges marshalling cost as
    ``marshal_fixed + n_args * marshal_per_arg + len(payload) *
    marshal_per_byte``.

    With ``pool``, the payload is packed into a leased buffer and returned
    as a ``memoryview`` of it (zero-copy); the receiver hands the view to
    :func:`unmarshal_args` with its own pool argument to recycle the lease.
    Without a pool the payload is an owned ``bytes`` copy, as before.
    """
    if not args:
        return b"", 0  # a true 0-word message: no marshalled payload at all
    p = Packer(None if pool is None else pool.take())
    p.put_u32(len(args))
    pack_get = _PACK.get
    for a in args:
        fn = pack_get(type(a))
        if fn is None:
            fn = _resolve_pack(type(a))
        fn(p, a)
    return (p.getvalue() if pool is None else p.getview()), len(args)


def unmarshal_args(
    payload: bytes | bytearray | memoryview, *, pool: BufferPool | None = None
) -> tuple[Any, ...]:
    """Inverse of :func:`marshal_args`.

    With ``pool``, a ``memoryview`` payload is released and its backing
    buffer recycled after the arguments are extracted (all extracted
    values own their bytes, so nothing dangles).
    """
    if len(payload) == 0:
        if pool is not None and type(payload) is memoryview:
            pool.recycle_view(payload)
        return ()
    u = Unpacker(payload)
    n = u.get_u32()
    args = tuple(unpack_object(u) for _ in range(n))
    if not u.done():
        raise MarshalError(f"{u.remaining} trailing bytes after {n} arguments")
    u.detach()
    if pool is not None and type(payload) is memoryview:
        pool.recycle_view(payload)
    return args
