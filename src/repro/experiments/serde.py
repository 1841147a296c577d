"""The shared JSON round-trip contract for experiment results.

Every result dataclass in the experiment harness implements::

    result.to_json()        -> JSON-native payload (dict of lists/dicts/scalars)
    Cls.from_json(payload)  -> an equal instance

The contract is what the content-addressed result cache stores and what
the daemon sends, so there is exactly one on-disk shape per result type
instead of one per consumer.  The helpers here handle the
two patterns plain ``json`` cannot: dataclass fields and dictionaries
whose keys are tuples or floats (JSON object keys must be strings, so
those maps are stored as ``[key, value]`` pair lists instead).

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
from collections.abc import Callable, Iterable, Mapping
from typing import Any

__all__ = [
    "dump_fields",
    "load_fields",
    "dump_map",
    "load_map",
    "canonical_json",
    "JOB_SCHEMA_VERSION",
    "JobEvent",
    "JobRecord",
    "JOB_STATES",
    "TERMINAL_EVENTS",
]


def dump_fields(obj: Any) -> dict[str, Any]:
    """A flat dataclass (scalar / str-keyed-dict / list fields) to a dict."""
    return dataclasses.asdict(obj)


def load_fields(cls: type, payload: Mapping[str, Any]) -> Any:
    """Inverse of :func:`dump_fields` for flat dataclasses."""
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ValueError(f"{cls.__name__}.from_json: unknown fields {unknown}")
    return cls(**payload)


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


def _check_version(cls_name: str, version: Any) -> int:
    if not isinstance(version, int) or version > JOB_SCHEMA_VERSION:
        raise ValueError(
            f"{cls_name}.from_json: unsupported schema version {version!r} "
            f"(this build speaks <= {JOB_SCHEMA_VERSION})"
        )
    return version


@dataclasses.dataclass
class JobEvent:
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

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_EVENTS

    def to_json(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobEvent":
        _check_version(cls.__name__, payload.get("version", JOB_SCHEMA_VERSION))
        return load_fields(cls, payload)


@dataclasses.dataclass
class JobRecord:
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

    def to_json(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobRecord":
        _check_version(cls.__name__, payload.get("version", JOB_SCHEMA_VERSION))
        return load_fields(cls, payload)
