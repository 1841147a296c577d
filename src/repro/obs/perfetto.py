"""Chrome trace-event / Perfetto JSON export.

Converts whatever a tracer captured — plain
:class:`~repro.sim.trace.TraceRecord` events, and spans when the tracer
is a :class:`~repro.obs.spans.SpanRecorder` — into the Chrome trace-event
JSON object format that ``ui.perfetto.dev`` (and ``chrome://tracing``)
load directly:

* one *process* per simulated node (``"M"`` metadata events name the
  tracks ``node 0``, ``node 1``, ...);
* spans become async nestable ``"b"``/``"e"`` pairs whose ``id`` is the
  root span of their tree, so an RMI's marshal/wait children nest under
  the invoke on one track even though unrelated spans interleave;
* every trace record becomes a thread-scoped ``"i"`` instant;
* each ``send``/``deliver`` record pair sharing a packet id becomes a
  flow ``"s"``/``"f"`` pair, drawing the arrow from the sending node's
  track to the delivering node's — the network traffic made visible.

Virtual microseconds map 1:1 onto the format's ``ts`` microseconds.

The schema is spelled twice on purpose: :func:`chrome_trace_events` builds
it as dicts for callers that inspect events, :func:`write_chrome_trace`
(to a file) and :func:`chrome_trace_text` (to a ``str``) emit the same
events straight as JSON text, because a trace is tens of thousands of
events and the export is what a user waits for.  The text
is exactly what ``json.dumps(..., separators=(",", ":"))`` writes for
the dicts; ``tests/properties/test_prop_perfetto.py`` holds the two
to that.

A traced run records facts, not text: a packet's ``send`` and
``deliver`` records share one
:class:`~repro.machine.network.PacketRecord`, and this module is where
it becomes text, once per packet, beside the one spelling of each
distinct timestamp, name and kind.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii as _esc
from pathlib import Path
from typing import Any

from repro.util.files import write_text_atomic

__all__ = ["chrome_trace_events", "chrome_trace_text", "write_chrome_trace"]

#: packet id in a text ``send``/``deliver`` detail ("am.short#17 0->1 ...")
_PID_RE = re.compile(r"#(\d+)\b")

#: pieces (one or two events each) joined into one ``write`` call: bounds
#: the exporter's memory, which also holds the spelled timestamps and details
_CHUNK_EVENTS = 512


def _num(x: Any) -> str:
    """A timestamp or id as ``json.dumps`` spells it: ``float.__repr__``
    for a finite float, the encoder's own text for anything else."""
    if isinstance(x, float) and x - x == 0.0:
        return float.__repr__(x)
    return json.dumps(x)


def _args_text(detail: Any) -> str:
    """What follows an event's ``ts``: its ``args`` when it has a detail."""
    return f',"args":{{"detail":{_esc(str(detail))}}}}}' if detail else "}"


class _Memo(dict):
    """``memo[key]`` is ``spell(key)``, spelled on the first lookup of
    each distinct key and kept.  Keys are names, kinds and details (strs
    and packet records): equal keys have equal text."""

    __slots__ = ("spell",)

    def __init__(self, spell: Any):
        super().__init__()
        self.spell = spell

    def __missing__(self, key: Any) -> str:
        text = self[key] = self.spell(key)
        return text


class _Stamps(dict):
    """``stamps[t]`` is ``_num(t)`` for a ``float`` ``t``.

    Built from one trace's timestamps in a single pass: ``repr`` of a
    list spells every distinct non-zero finite float in C.  Any other
    float is spelled on lookup and not kept.  Only floats may be looked
    up: ``7 == 7.0`` and ``0.0 == -0.0``, but JSON spells each pair
    differently, so an int must never find a float's entry and no zero
    has one.
    """

    __slots__ = ()

    @classmethod
    def of(cls, records: list, spans: list) -> "_Stamps":
        times = {r.time for r in records}
        times.update([s.start for s in spans])
        times.update([s.end for s in spans])
        floats = [t for t in times if type(t) is float and t and t - t == 0.0]
        return cls(zip(floats, repr(floats)[1:-1].split(", ")))

    def __missing__(self, t: float) -> str:
        return _num(t)


def _captured(tracer: Any) -> tuple[list, list, list[int]]:
    """``(records, spans, node ids ascending)`` of whatever ``tracer`` holds."""
    records = list(getattr(tracer, "records", ()))
    spans = list(getattr(tracer, "spans", ()))
    nodes = {r.node for r in records}
    nodes.update(s.node for s in spans)
    return records, spans, sorted(nodes)


def _root_ids(spans: list) -> list[int]:
    """Each span's root ancestor, in one forward sweep: a parent's sid
    always precedes its children's, so its root is already known.  A
    parent link pointing anywhere else makes the span its own root."""
    roots: list[int] = []
    for sid, s in enumerate(spans):
        parent = s.parent
        roots.append(roots[parent] if 0 <= parent < sid else sid)
    return roots


def _flow_ids(records: list) -> list[int | None]:
    """Per record, the packet id its flow arrow carries, or None.

    A send and its deliver share the packet id: the ``pid`` of a
    :class:`~repro.machine.network.PacketRecord` detail, or the first
    ``#N`` of a text one (hand-built records).  Only ids seen on BOTH
    ends get an arrow (dropped packets have no deliver, acks consumed by
    the sublayer likewise, and a bounded recorder may have evicted the
    send).
    """
    search = _PID_RE.search
    fids: list[int | None] = []
    sent: set[int] = set()
    delivered: set[int] = set()
    for _, _, kind, detail in records:
        fid = None
        if kind == "send" or kind == "deliver":
            if isinstance(detail, str):
                m = search(detail)
                if m:
                    fid = int(m.group(1))
            elif detail.pid >= 0:  # as the text spells it: "#-1" is no id
                fid = detail.pid
            if fid is not None:
                (sent if kind == "send" else delivered).add(fid)
        fids.append(fid)
    linked = sent & delivered
    return [fid if fid in linked else None for fid in fids]


def _other_data(tracer: Any) -> dict[str, Any]:
    """The file's ``otherData``.  Truncation is never silent: a recorder
    that evicted records or refused spans says so here (and only then, so
    a complete trace's file does not change)."""
    other: dict[str, Any] = {"clock": "virtual microseconds"}
    for key, attr in (("evicted_records", "evicted"), ("dropped_spans", "dropped_spans")):
        lost = getattr(tracer, attr, 0)
        if lost:
            other[key] = lost
    return other


def chrome_trace_events(tracer: Any) -> list[dict[str, Any]]:
    """The ``traceEvents`` list for ``tracer``'s captured run.

    Accepts any tracer exposing ``records`` (and optionally ``spans``);
    returns plain dicts ready for :func:`json.dump` — the same events, in
    the same order, that :func:`write_chrome_trace` puts in the file.
    """
    records, spans, nodes = _captured(tracer)
    events: list[dict[str, Any]] = []
    for nid in nodes:
        events.append({
            "name": "process_name", "ph": "M", "pid": nid, "tid": 0,
            "args": {"name": f"node {nid}"},
        })
        events.append({
            "name": "thread_name", "ph": "M", "pid": nid, "tid": 0,
            "args": {"name": "machine events"},
        })

    for s, rid in zip(spans, _root_ids(spans)):
        if s.end < 0.0:
            continue  # open span: the run stopped (or errored) inside it
        begin: dict[str, Any] = {
            "name": s.name, "cat": "span", "ph": "b",
            "id": rid, "pid": s.node, "tid": 0, "ts": s.start,
        }
        if s.detail:
            begin["args"] = {"detail": s.detail}
        events.append(begin)
        events.append({
            "name": s.name, "cat": "span", "ph": "e",
            "id": rid, "pid": s.node, "tid": 0, "ts": s.end,
        })

    for r, fid in zip(records, _flow_ids(records)):
        instant: dict[str, Any] = {
            "name": r.kind, "ph": "i", "s": "t",
            "pid": r.node, "tid": 0, "ts": r.time,
        }
        if r.detail:
            instant["args"] = {"detail": str(r.detail)}
        events.append(instant)
        if fid is not None:
            flow: dict[str, Any] = {
                "name": "msg", "cat": "flow",
                "ph": "s" if r.kind == "send" else "f",
                "id": fid, "pid": r.node, "tid": 0, "ts": r.time,
            }
            if r.kind == "deliver":
                flow["bp"] = "e"
            events.append(flow)
    return events


def _event_texts(tracer: Any) -> Iterator[str]:
    """The JSON text of the events of :func:`chrome_trace_events`, in
    order, without building the events.  A span's ``b``/``e`` pair, and
    an instant with its flow event, come as one piece; each distinct
    timestamp, name, kind and detail is spelled once."""
    records, spans, nodes = _captured(tracer)
    pids = {nid: _num(nid) for nid in nodes}
    for nid, pid in pids.items():
        yield (f'{{"name":"process_name","ph":"M","pid":{pid},"tid":0,'
               f'"args":{{"name":{_esc(f"node {nid}")}}}}},'
               f'{{"name":"thread_name","ph":"M","pid":{pid},"tid":0,'
               '"args":{"name":"machine events"}}')

    stamp = _Stamps.of(records, spans)
    args = _Memo(_args_text)
    span_head = _Memo(lambda name: f'{{"name":{_esc(name)},"cat":"span","ph":')
    for s, rid in zip(spans, _root_ids(spans)):
        end = s.end
        if end < 0.0:
            continue  # open span: the run stopped (or errored) inside it
        start = s.start
        head = span_head[s.name]
        ids = f',"id":{rid},"pid":{pids[s.node]},"tid":0,"ts":'
        yield (f'{head}"b"{ids}{stamp[start] if type(start) is float else _num(start)}'
               f'{args[s.detail]},'
               f'{head}"e"{ids}{stamp[end] if type(end) is float else _num(end)}}}')

    instant_head = _Memo(lambda kind: f'{{"name":{_esc(kind)},"ph":"i","s":"t"')
    for (t, node, kind, detail), fid in zip(records, _flow_ids(records)):
        instant = instant_head[kind]
        tail = f',"pid":{pids[node]},"tid":0,"ts":{stamp[t] if type(t) is float else _num(t)}'
        if fid is None:
            yield f'{instant}{tail}{args[detail]}'
        elif kind == "send":
            yield (f'{instant}{tail}{args[detail]},'
                   f'{{"name":"msg","cat":"flow","ph":"s","id":{fid}{tail}}}')
        else:
            yield (f'{instant}{tail}{args[detail]},'
                   f'{{"name":"msg","cat":"flow","ph":"f","id":{fid}{tail},"bp":"e"}}')


def _file_texts(tracer: Any) -> Iterator[str]:
    """The export file's text, in order, in pieces of bounded size."""
    yield '{"traceEvents":['
    texts = _event_texts(tracer)
    sep = ""
    while chunk := ",".join(islice(texts, _CHUNK_EVENTS)):
        yield sep + chunk
        sep = ","
    other = json.dumps(_other_data(tracer), separators=(",", ":"))
    yield f'],"displayTimeUnit":"ms","otherData":{other}}}\n'


def chrome_trace_text(tracer: Any) -> str:
    """``tracer``'s run as Chrome trace-event JSON text: exactly what
    :func:`write_chrome_trace` puts in the file."""
    return "".join(_file_texts(tracer))


def write_chrome_trace(tracer: Any, path: str | Path) -> Path:
    """Write ``tracer``'s run as a Chrome trace-event JSON file; returns
    the path written.  Open it at https://ui.perfetto.dev.

    One streaming pass in bounded chunks, published with an atomic
    rename: an interrupt or a full disk leaves the previous file at
    ``path`` (or none), never a truncated one.
    """
    return write_text_atomic(path, _file_texts(tracer))
