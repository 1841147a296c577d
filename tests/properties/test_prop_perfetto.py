"""The Perfetto file is ``json.dumps`` of the dict view, byte for byte.

``write_chrome_trace`` emits JSON text directly; ``chrome_trace_events``
builds the same schema as dicts.  For any recorded content the file must
equal the standard encoder's rendering of the dict view, so the two
spellings of the schema cannot drift and the hand-written text stays
canonical JSON (escapes, float formatting, separators).
``chrome_trace_text`` is the same export as a ``str`` (what the ``trace``
artifact stores): its UTF-8 encoding is the file's bytes.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.network import PacketRecord
from repro.obs import (
    SpanRecorder,
    chrome_trace_events,
    chrome_trace_text,
    perfetto,
    write_chrome_trace,
)
from repro.sim.trace import RecordingTracer

_TIMES = st.one_of(
    st.sampled_from([5.0, 1e-07, 0.1 + 0.2, -0.0, 0.0, 1e16, 1e22, 123456789.125, 7]),
    st.floats(allow_nan=False),
    st.integers(0, 10**6),
)
_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['say "hi"', "back\\slash", "tab\there", "nul\x00", "\x7f", "naïve µs ✓", ""]),
)
# '#' followed by digits in odd places: no word boundary after them, two
# ids in one string, a bare '#', non-ASCII digits
_DETAILS = st.one_of(
    _TEXT,
    st.builds("am.short#{} 0->1 (12B)".format, st.integers(0, 6)),
    st.builds("{}#{}{}".format, _TEXT, st.integers(0, 6), _TEXT),
    st.sampled_from(["#", "##3", "#4x", "a#5 b#6", "#٣", "#7\n"]),
)
_KINDS = st.sampled_from(["send", "deliver", "thread.run", "poll", 'odd"kind'])
_NODES = st.integers(0, 5)
# the fields of a traced packet (pid -1: never injected, no flow id);
# packet kinds carry no '#', as the network's never do
_PACKETS = st.builds(
    PacketRecord,
    kind=st.sampled_from(["am.short", "am.bulk", 'q"uote', "naïve µs"]),
    pid=st.integers(-1, 6),
    src=_NODES,
    dst=_NODES,
    nbytes=st.integers(0, 5000),
    seq=st.integers(-1, 3),
    attempt=st.integers(0, 2),
)
_RECORDS = st.lists(
    st.tuples(_TIMES, _NODES, _KINDS, st.one_of(_DETAILS, _PACKETS)), max_size=40)
# (start, node, name, detail, parent, end or None for a span left open);
# parents run past both ends of the span list
_SPANS = st.lists(
    st.tuples(_TIMES, _NODES, _TEXT, _DETAILS, st.integers(-3, 45),
              st.one_of(st.none(), _TIMES)),
    max_size=40,
)


def _expected_file(tracer) -> str:
    other = {"clock": "virtual microseconds"}
    if tracer.evicted:
        other["evicted_records"] = tracer.evicted
    if getattr(tracer, "dropped_spans", 0):
        other["dropped_spans"] = tracer.dropped_spans
    doc = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _written(tracer, chunk_events: int) -> str:
    """The file ``write_chrome_trace`` leaves, which must also be what
    ``chrome_trace_text`` returns, byte for byte."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(perfetto, "_CHUNK_EVENTS", chunk_events):
        path = write_chrome_trace(tracer, Path(tmp) / "t.json")
        assert [p.name for p in Path(tmp).iterdir()] == ["t.json"]  # no temp left
        written = path.read_bytes()
        assert chrome_trace_text(tracer).encode() == written
        return written.decode("utf-8")


@given(
    records=_RECORDS,
    spans=_SPANS,
    maxlen=st.sampled_from([0, 3, 10, 1000]),   # small: sends evicted before their deliver
    max_spans=st.sampled_from([2, 1000]),
    chunk_events=st.sampled_from([1, 2, 3, 7, 4096]),
)
@settings(max_examples=200, deadline=None)
def test_file_is_json_dumps_of_the_dict_view(records, spans, maxlen, max_spans, chunk_events):
    tracer = SpanRecorder(maxlen=maxlen, max_spans=max_spans)
    for rec in records:
        tracer.record(*rec)
    for start, node, name, detail, parent, end in spans:
        sid = tracer.begin(start, node, name, detail, parent)
        if end is not None:
            tracer.end(sid, end)

    text = _written(tracer, chunk_events)
    assert text == _expected_file(tracer)
    assert json.loads(text)["traceEvents"] == chrome_trace_events(tracer)


@given(records=_RECORDS, chunk_events=st.sampled_from([1, 4, 4096]))
@settings(max_examples=50, deadline=None)
def test_records_only_tracer(records, chunk_events):
    tracer = RecordingTracer(maxlen=25)   # no `spans`, no `dropped_spans`
    for rec in records:
        tracer.record(*rec)
    assert _written(tracer, chunk_events) == _expected_file(tracer)


def _tracer_of(records, *, as_text: bool) -> SpanRecorder:
    tracer = SpanRecorder()
    for time, node, kind, detail in records:
        tracer.record(time, node, kind, str(detail) if as_text else detail)
    return tracer


@given(records=_RECORDS, chunk_events=st.sampled_from([1, 5, 4096]))
@settings(max_examples=100, deadline=None)
def test_packet_records_export_as_their_text(records, chunk_events):
    """A packet record exports byte for byte as its ``str()`` would."""
    fields = _tracer_of(records, as_text=False)
    text = _tracer_of(records, as_text=True)
    assert _written(fields, chunk_events) == _written(text, chunk_events)
    assert chrome_trace_events(fields) == chrome_trace_events(text)


@given(times=st.permutations([7, 7.0, 0.0, -0.0, 7, -0.0, 2.5, 0, 7.0, 0.0]),
       chunk_events=st.sampled_from([1, 3, 4096]))
@settings(max_examples=60, deadline=None)
def test_equal_timestamps_spelled_differently_stay_apart(times, chunk_events):
    """``7 == 7.0`` and ``0.0 == -0.0``, but JSON spells each pair
    differently: one trace mixing them, in any order, still exports
    exactly what the encoder writes."""
    tracer = SpanRecorder()
    for i, t in enumerate(times):
        tracer.record(t, i % 2, "send" if i % 2 else "deliver", f"p#{i // 2}")
        tracer.end(tracer.begin(t, 0, "s"), times[-1 - i])
    text = _written(tracer, chunk_events)
    assert text == _expected_file(tracer)
    assert "7.0" in text and "-0.0" in text and '"ts":7,' in text


@given(parents=st.lists(st.integers(-2, 30), max_size=30))
def test_span_ids_are_the_root_ancestor(parents):
    """The forward sweep agrees with walking each span's parent chain."""
    tracer = SpanRecorder()
    for sid, parent in enumerate(parents):
        # a well-formed link points at an earlier span; anything else is a root
        tracer.end(tracer.begin(float(sid), 0, "s", parent=parent), float(sid) + 1.0)

    def root(sid: int) -> int:
        while 0 <= parents[sid] < sid:
            sid = parents[sid]
        return sid

    begins = [e for e in chrome_trace_events(tracer) if e["ph"] == "b"]
    assert [e["id"] for e in begins] == [root(sid) for sid in range(len(parents))]
