"""The JSON round trip of experiment results, declared once.

A result dataclass subclasses :class:`Codec` and gets::

    result.to_json()        -> JSON-native payload (dict of lists/dicts/scalars)
    Cls.from_json(payload)  -> an equal instance

both derived from its fields and their type hints, by these rules:

* a dataclass becomes ``{field: value}`` in field order;
* ``dict[str, X]`` becomes an object, a bare ``dict`` / ``list`` is kept;
* a dict keyed by ``float``, ``int`` or ``tuple[...]`` becomes a
  :func:`dump_map` ``[key, value]`` pair list (JSON object keys must be
  strings), tuple keys read back as tuples;
* ``list[X]`` becomes an array; ``tuple[...]`` too, read back as a tuple;
* ``X | None`` passes ``None`` through; ``int`` / ``float`` / ``str`` /
  ``bool`` are themselves.

Decoding rejects unknown fields (``ValueError``) and values whose shape
does not match their hint (``TypeError``), so a cached payload of another
shape is a miss, not a crash.  A class's plan is built on first use.
The cache stores and the daemon sends these payloads, so each result type
has one on-disk shape.  Callers only duck-type the pair: a registered
result need not be a :class:`Codec`.  ``csv()`` is not derived; each
result formats its own columns.

The module also owns the **job envelope**: :class:`JobRecord` (one
submitted unit of work — a single artifact run, a sweep grid, or a
batch — with its state, per-task params and result payloads) and
:class:`JobEvent` (one line of a streamed JSONL job log).  The
experiment service speaks these on the wire, the in-process client
records them, the sweep CSV writer and the report manifest are built
from them — one versioned shape instead of an envelope per consumer.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from collections.abc import Callable, Iterable, Mapping
from typing import Any

__all__ = [
    "Codec",
    "dump_map",
    "load_map",
    "canonical_json",
    "JOB_SCHEMA_VERSION",
    "JobEvent",
    "JobRecord",
    "JOB_STATES",
    "TERMINAL_EVENTS",
]


class Codec:
    """Base of a result dataclass: ``to_json`` / ``from_json`` by the
    module's rules.  It adds no instance state, so slotted classes keep
    their slots."""

    __slots__ = ()

    def to_json(self) -> dict:
        return _encode(type(self), self)

    @classmethod
    def from_json(cls, payload: Any) -> Any:
        return _decode(cls, payload)


#: encodes or decodes one value
Coder = Callable[[Any], Any]

#: class -> [(field name, encode, decode)], built once per class
_PLANS: dict[type, list[tuple[str, Coder, Coder]]] = {}

#: the hints most fields carry, resolved without an ``eval``
_NAMED = {"int": int, "float": float, "str": str, "bool": bool, "dict": dict, "list": list}


def _plan(cls: type) -> list[tuple[str, Coder, Coder]]:
    plan = _PLANS.get(cls)
    if plan is None:
        # a string hint (``from __future__ import annotations``) is
        # evaluated in its module, as typing.get_type_hints would
        scope = vars(sys.modules[cls.__module__])
        plan = _PLANS[cls] = [
            (f.name, *_coders(
                (_NAMED.get(f.type) or eval(f.type, scope))
                if isinstance(f.type, str) else f.type
            ))
            for f in dataclasses.fields(cls)
        ]
    return plan


def _encode(cls: type, obj: Any) -> dict[str, Any]:
    return {name: enc(getattr(obj, name)) for name, enc, _ in _plan(cls)}


def _decode(cls: type, payload: Any) -> Any:
    _expect(dict, payload)
    kwargs = {}
    for name, _, dec in _plan(cls):
        if name in payload:
            try:
                kwargs[name] = dec(payload[name])
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"{cls.__name__}.{name}: {exc}") from None
    obj = cls(**kwargs)  # first, so a job envelope reports a newer version
    if len(kwargs) < len(payload):
        unknown = sorted(set(payload) - set(kwargs))
        raise ValueError(f"{cls.__name__}.from_json: unknown fields {unknown}")
    return obj


def _expect(kind: type, value: Any) -> Any:
    if not isinstance(value, kind):
        raise TypeError(f"expected a JSON {kind.__name__}, got {type(value).__name__}")
    return value


def _scalar(value: Any) -> Any:
    if isinstance(value, (dict, list)):
        raise TypeError(f"expected a scalar, got {type(value).__name__}")
    return value


def _coders(hint: Any) -> tuple[Coder, Coder]:
    """(encode, decode) for one type hint, by the module docstring's rules."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _coders(inner)
        return (lambda v: None if v is None else enc(v),
                lambda v: None if v is None else dec(v))
    if dataclasses.is_dataclass(hint):
        return (lambda v: _encode(hint, v)), (lambda v: _decode(hint, v))
    if origin is list:
        enc, dec = _coders(args[0])
        return (lambda v: [enc(x) for x in v],
                lambda v: [dec(x) for x in _expect(list, v)])
    if origin is tuple:
        coders = [_coders(a) for a in args]
        return (lambda v: [enc(x) for (enc, _), x in zip(coders, v)],
                lambda v: tuple(dec(x) for (_, dec), x in
                                zip(coders, _expect(list, v), strict=True)))
    if origin is dict:
        enc, dec = _coders(args[1])
        if args[0] is str:
            return (lambda d: {k: enc(v) for k, v in d.items()},
                    lambda d: {k: dec(v) for k, v in _expect(dict, d).items()})
        return (lambda d: dump_map(d, enc),
                lambda pairs: load_map(_expect(list, pairs), dec))
    if hint in (dict, list):
        return hint, lambda v: _expect(hint, v)
    if hint in (int, float, str, bool):
        return _scalar, _scalar
    raise TypeError(f"no JSON rule for the type hint {hint!r}")


def dump_map(
    d: Mapping[Any, Any], dump_value: Callable[[Any], Any] = lambda v: v
) -> list[list[Any]]:
    """A dict with tuple/float/int keys as an order-preserving pair list.

    Tuple keys become lists (JSON has no tuples); scalar keys are stored
    as-is, so floats and ints survive the round trip un-stringified.
    """
    return [
        [list(k) if isinstance(k, tuple) else k, dump_value(v)]
        for k, v in d.items()
    ]


def load_map(
    pairs: Iterable[Iterable[Any]],
    load_value: Callable[[Any], Any] = lambda v: v,
) -> dict[Any, Any]:
    """Inverse of :func:`dump_map`; list keys come back as tuples."""
    return {
        tuple(k) if isinstance(k, list) else k: load_value(v)
        for k, v in pairs
    }


def canonical_json(payload: Any) -> str:
    """Deterministic text form (sorted keys, no whitespace) used for
    content-addressed cache keys; tuples are normalized to lists first."""

    def norm(v: Any) -> Any:
        if isinstance(v, tuple):
            return [norm(x) for x in v]
        if isinstance(v, list):
            return [norm(x) for x in v]
        if isinstance(v, dict):
            return {k: norm(x) for k, x in v.items()}
        return v

    return json.dumps(norm(payload), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# The versioned job envelope (service wire format + report manifest)
# ---------------------------------------------------------------------------

#: bump when a field changes meaning; readers reject newer majors
JOB_SCHEMA_VERSION = 1

#: the job lifecycle; "queued" -> "running" -> one of the last three
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: event kinds that end a job's stream (the required last JSONL line)
TERMINAL_EVENTS = ("job.done", "job.failed", "job.cancelled")


def _check_version(obj: Any) -> None:
    if not isinstance(obj.version, int) or obj.version > JOB_SCHEMA_VERSION:
        raise ValueError(
            f"{type(obj).__name__}: unsupported schema version {obj.version!r} "
            f"(this build speaks <= {JOB_SCHEMA_VERSION})"
        )


@dataclasses.dataclass
class JobEvent(Codec):
    """One line of a job's streamed JSONL log.

    Kinds: ``job.queued``, ``task.started`` (``attempt`` is 2 after a
    worker crash), ``task.finished`` (data has ``source``: run | retry |
    cache | dedup), ``task.cached``, ``row`` (one
    incremental sweep row: params + numeric summary + result payload)
    and the terminal trio ``job.done`` / ``job.failed`` /
    ``job.cancelled``.  ``seq`` is per-job, dense from 0, so a client
    can resume a stream from any point.
    """

    kind: str
    job_id: str
    seq: int
    data: dict = dataclasses.field(default_factory=dict)
    version: int = JOB_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_version(self)

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_EVENTS


@dataclasses.dataclass
class JobRecord(Codec):
    """One submitted unit of work and everything known about it.

    ``params`` / ``labels`` are per-task (a plain run has one task, a
    sweep grid one per point); ``results`` holds the ``to_json()``
    payloads in task order once tasks finish (``None`` entries for
    tasks that have not).  The record is the single envelope the
    service returns from ``status``/``list-jobs``, the in-process
    client keeps, and the report writer serializes into its manifest.
    """

    job_id: str
    client: str
    artifact: str  # display name: one spec, "batch", or "sweep:<spec>"
    state: str = "queued"
    priority: int = 0
    #: per-task spec names (a batch job mixes artifacts)
    artifacts: list = dataclasses.field(default_factory=list)
    params: list = dataclasses.field(default_factory=list)
    labels: list = dataclasses.field(default_factory=list)
    submitted_s: float = 0.0
    finished_s: float | None = None
    tasks_total: int = 0
    tasks_done: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    error: str | None = None
    results: list | None = None
    version: int = JOB_SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_version(self)
        if self.state not in JOB_STATES:
            raise ValueError(
                f"JobRecord: unknown state {self.state!r}; "
                f"expected one of {', '.join(JOB_STATES)}"
            )
        # params are held JSON-normalized (tuples -> lists, keys sorted)
        # so a record equals its own round trip exactly
        self.params = json.loads(canonical_json(self.params))

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")
