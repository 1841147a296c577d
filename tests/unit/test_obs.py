"""Unit tests for the observability layer (histograms, spans, Perfetto)."""

import gc
import json
import math
from math import frexp, inf

import pytest

from repro.am import install_am
from repro.machine.cluster import Cluster
from repro.machine.network import Packet, PacketRecord
from repro.obs import (
    LogHistogram,
    MetricNames,
    Metrics,
    SpanRecorder,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs import perfetto
from repro.obs.metrics import N_BUCKETS
from repro.sim.trace import NullTracer, RecordingTracer, Tracer, TraceRecord


class TestHistogramBucketing:
    def test_zero_lands_in_bucket_zero(self):
        h = LogHistogram()
        h.record(0.0)
        assert h.counts[0] == 1
        assert h.quantile(1.0) == 0.0

    def test_sub_one_lands_in_bucket_zero(self):
        h = LogHistogram()
        h.record(0.999)
        assert h.counts[0] == 1

    def test_power_of_two_boundaries(self):
        # bucket b covers [2^(b-1), 2^b): 1.0 -> b1, 1.999 -> b1, 2.0 -> b2
        h = LogHistogram()
        h.record(1.0)
        assert h.counts[1] == 1
        h.record(1.999)
        assert h.counts[1] == 2
        h.record(2.0)
        assert h.counts[2] == 1
        h.record(4.0)
        assert h.counts[3] == 1

    def test_infinity_lands_in_overflow_bucket(self):
        # frexp(inf) returns exponent 0 — a naive implementation would
        # file inf under bucket 0; it must go to the open last bucket
        h = LogHistogram()
        h.record(math.inf)
        assert h.counts[N_BUCKETS - 1] == 1
        assert h.quantile(1.0) == math.inf

    def test_huge_value_clamps_to_last_bucket(self):
        h = LogHistogram()
        h.record(2.0**100)
        assert h.counts[N_BUCKETS - 1] == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram().record(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram().record(math.nan)

    def test_bucket_bounds_cover_the_line(self):
        lo0, hi0 = LogHistogram.bucket_bounds(0)
        assert (lo0, hi0) == (0.0, 1.0)
        prev_hi = hi0
        for b in range(1, N_BUCKETS):
            lo, hi = LogHistogram.bucket_bounds(b)
            assert lo == prev_hi  # contiguous, no gaps
            prev_hi = hi
        assert prev_hi == math.inf

    def test_bucket_bounds_range_checked(self):
        with pytest.raises(ValueError):
            LogHistogram.bucket_bounds(N_BUCKETS)


class TestHistogramStats:
    def test_empty_quantiles_are_zero(self):
        h = LogHistogram()
        assert h.quantile(0.5) == 0.0
        assert h.mean() == 0.0

    def test_quantiles_clamped_to_observed_range(self):
        h = LogHistogram()
        for _ in range(10):
            h.record(100.0)
        # all mass in one bucket: every quantile is the single value
        assert h.quantile(0.01) == 100.0
        assert h.quantile(0.99) == 100.0

    def test_quantile_ordering(self):
        h = LogHistogram()
        for v in (1.0, 2.0, 4.0, 8.0, 500.0, 1000.0):
            h.record(v)
        p = h.percentiles()
        assert p["p50"] <= p["p90"] <= p["p99"]
        assert h.vmin <= p["p50"]
        assert p["p99"] <= h.vmax

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            LogHistogram().quantile(1.5)

    def test_mean_and_extrema(self):
        h = LogHistogram()
        h.record(2.0)
        h.record(6.0)
        assert h.mean() == 4.0
        assert h.vmin == 2.0
        assert h.vmax == 6.0

    def test_merge_folds_everything(self):
        a, b = LogHistogram("a"), LogHistogram("b")
        a.record(1.0)
        b.record(1000.0)
        a.merge(b)
        assert a.count == 2
        assert a.vmin == 1.0
        assert a.vmax == 1000.0
        assert a.total == 1001.0

    def test_snapshot_shape(self):
        h = LogHistogram()
        h.record(5.0)
        snap = h.snapshot()
        assert set(snap) == {"count", "mean", "min", "max", "p50", "p90", "p99"}


def _reference_record(h: LogHistogram, value: float) -> None:
    """`LogHistogram.record` as first written (validate, then bucket with
    an explicit inf test): the oracle the thinned method must equal."""
    if not value >= 0.0:
        raise ValueError(value)
    if value < 1.0:
        b = 0
    elif value == inf:
        b = N_BUCKETS - 1
    else:
        b = min(frexp(value)[1], N_BUCKETS - 1)
    h.counts[b] += 1
    h.count += 1
    h.total += value
    h.vmin = min(h.vmin, value)
    h.vmax = max(h.vmax, value)


class TestHistogramRecordMatchesReference:
    EDGES = [
        0.0, -0.0, 5e-324, 0.999, 1.0, 1.999, 2.0, 4.0, 1000.0,
        2.0**61, 2.0**62 - 1024.0, 2.0**62, 2.0**62 * 1.5, 2.0**63, 2.0**100,
        1.7976931348623157e308, inf,
    ]

    def test_buckets_and_stats_equal_on_edge_values(self):
        got, want = LogHistogram(), LogHistogram()
        for v in self.EDGES:
            got.record(v)
            _reference_record(want, v)
            assert got.counts == want.counts, v
            assert (got.count, got.total, got.vmin, got.vmax) == (
                want.count, want.total, want.vmin, want.vmax), v

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, -inf, math.nan])
    def test_rejects_what_the_reference_rejects(self, bad):
        h = LogHistogram()
        with pytest.raises(ValueError):
            _reference_record(LogHistogram(), bad)
        with pytest.raises(ValueError):
            h.record(bad)
        assert h.count == 0 and not any(h.counts)  # nothing half-recorded


class TestMetricsRegistry:
    def test_histogram_memoized(self):
        m = Metrics()
        assert m.histogram("x") is m.histogram("x")
        assert len(m) == 1

    def test_histograms_sorted(self):
        m = Metrics()
        m.histogram("zz")
        m.histogram("aa")
        assert list(m.histograms()) == ["aa", "zz"]

    def test_gauges(self):
        m = Metrics()
        m.gauge("g", 0.5)
        assert m.gauges["g"] == 0.5

    def test_metric_names_distinct(self):
        names = [
            getattr(MetricNames, a) for a in dir(MetricNames) if not a.startswith("_")
        ]
        assert len(names) == len(set(names))


class TestSpanRecorder:
    def test_tracer_base_does_not_want_spans(self):
        assert Tracer.wants_spans is False
        assert NullTracer().wants_spans is False
        assert RecordingTracer().wants_spans is False
        assert SpanRecorder().wants_spans is True

    def test_begin_end_round_trip(self):
        rec = SpanRecorder()
        sid = rec.begin(10.0, 0, "op", "detail")
        assert rec.spans[sid].open
        rec.end(sid, 25.0)
        s = rec.spans[sid]
        assert not s.open
        assert s.duration == 15.0
        assert rec.finished() == [s]

    def test_parent_links(self):
        rec = SpanRecorder()
        root = rec.begin(0.0, 0, "outer")
        child = rec.begin(1.0, 0, "inner", parent=root)
        assert rec.spans[child].parent == root
        assert rec.children_of(root) == [rec.spans[child]]

    def test_full_recorder_drops_and_end_ignores(self):
        rec = SpanRecorder(max_spans=1)
        sid0 = rec.begin(0.0, 0, "kept")
        sid1 = rec.begin(1.0, 0, "dropped")
        assert sid0 == 0
        assert sid1 == -1
        assert rec.dropped_spans == 1
        rec.end(sid1, 2.0)  # must be a silent no-op
        assert len(rec.spans) == 1

    def test_clear_resets_spans(self):
        rec = SpanRecorder()
        rec.begin(0.0, 0, "x")
        rec.dropped_spans = 3
        rec.clear()
        assert rec.spans == []
        assert rec.dropped_spans == 0

    def test_recording_tracer_counts_evictions(self):
        t = RecordingTracer(maxlen=2)
        for i in range(5):
            t.record(float(i), 0, "k", "")
            assert t.evicted == max(0, i + 1 - 2)  # exact at and past the wrap
        assert t.evicted == 3
        assert [r.time for r in t.records] == [3.0, 4.0]  # oldest went first
        t.clear()
        assert t.evicted == 0
        t.record(9.0, 0, "k")
        assert t.evicted == 0 and len(t.records) == 1  # the count restarts too

    def test_kinds_filter_drops_before_counting(self):
        t = RecordingTracer(maxlen=2, kinds={"send"})
        for i in range(4):
            t.record(float(i), 0, "poll", "noise")
        assert len(t.records) == 0 and t.evicted == 0
        for i in range(3):
            t.record(float(i), 1, "send", f"pkt#{i}")
        assert t.of_kind("send") == list(t.records)
        assert [r.detail for r in t.records] == ["pkt#1", "pkt#2"]
        assert t.evicted == 1

    def test_records_are_trace_records(self):
        t = RecordingTracer()
        t.record(1.5, 2, "send")
        (r,) = t.records
        assert type(r) is TraceRecord
        assert r == TraceRecord(time=1.5, node=2, kind="send", detail="")


def _traced_am_run():
    """A 2-node ping with spans: real send/deliver records for the flows."""
    rec = SpanRecorder()
    cluster = Cluster(2, tracer=rec)
    eps = install_am(cluster)
    eps[1].register_handler("ping", lambda *a: iter(()))

    def main(node):
        sid = rec.begin(node.sim.now, 0, "app.ping")
        yield from node.service("am").send_short(1, "ping", nbytes=12)
        rec.end(sid, node.sim.now)

    def server(node):
        yield from node.service("am").wait_and_poll()

    cluster.launch(1, server(cluster.nodes[1]), daemon=True)
    cluster.launch(0, main(cluster.nodes[0]))
    cluster.run()
    return rec


class TestPacketRecords:
    """A traced packet is recorded as its fields; text is made on reading."""

    def test_traced_run_never_describes_a_packet(self, monkeypatch):
        calls = []
        describe = Packet.describe

        def counted(self):
            calls.append(self.pid)
            return describe(self)

        monkeypatch.setattr(Packet, "describe", counted)
        rec = _traced_am_run()
        assert rec.of_kind("send") and rec.of_kind("deliver")
        assert calls == []

    def test_records_hold_fields_not_packets(self):
        rec = _traced_am_run()
        for r in rec.records:
            assert not any(isinstance(o, Packet) for o in gc.get_referents(r))
        sends = {r.detail.pid: r.detail for r in rec.of_kind("send")}
        for r in rec.of_kind("deliver"):
            assert type(r.detail) is PacketRecord
            # only ints and strs behind the record (and its own class) ...
            behind = [o for o in gc.get_referents(r.detail) if o is not PacketRecord]
            assert {type(o) for o in behind} <= {int, str}
            # ... and one record per packet, shared by its send and deliver
            assert r.detail is sends[r.detail.pid]

    @pytest.mark.parametrize("seq, attempt, tail", [
        (-1, 0, ""), (3, 0, " seq=3"), (3, 2, " seq=3 retx=2"), (-1, 1, " retx=1"),
    ])
    def test_record_spells_describe(self, seq, attempt, tail):
        pkt = Packet(src=0, dst=1, kind="am.short", payload=b"xy", nbytes=24,
                     pid=17, seq=seq, attempt=attempt)
        assert str(pkt.as_record()) == pkt.describe() == f"am.short#17 0->1 (24B){tail}"


class TestPerfettoExport:
    def test_event_schema(self):
        events = chrome_trace_events(_traced_am_run())
        for ev in events:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] != "M":
                assert "ts" in ev

    def test_metadata_names_every_node(self):
        events = chrome_trace_events(_traced_am_run())
        meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
        assert {m["args"]["name"] for m in meta} == {"node 0", "node 1"}

    def test_spans_emit_matched_async_pairs(self):
        events = chrome_trace_events(_traced_am_run())
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        assert begins and len(begins) == len(ends)
        assert sorted(e["id"] for e in begins) == sorted(e["id"] for e in ends)
        assert any(e["name"] == "app.ping" for e in begins)
        # am.handle runs on the receiving node
        handle = [e for e in begins if e["name"] == "am.handle"]
        assert handle and all(e["pid"] == 1 for e in handle)

    def test_flow_events_link_send_to_deliver(self):
        events = chrome_trace_events(_traced_am_run())
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        finishes = {e["id"]: e for e in events if e["ph"] == "f"}
        assert starts  # the ping produced at least one linked packet
        assert set(starts) == set(finishes)
        for fid, s in starts.items():
            f = finishes[fid]
            assert s["pid"] != f["pid"]  # crosses nodes
            assert s["ts"] <= f["ts"]  # wire time is non-negative

    def test_open_spans_are_skipped(self):
        rec = SpanRecorder()
        rec.begin(0.0, 0, "never-ended")
        events = chrome_trace_events(rec)
        assert not [e for e in events if e["ph"] in ("b", "e")]

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        rec = _traced_am_run()
        path = write_chrome_trace(rec, tmp_path / "sub" / "t.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        # the file and the dict view are two spellings of one schema
        assert doc["traceEvents"] == chrome_trace_events(rec)
        assert doc["displayTimeUnit"] == "ms"
        assert "clock" in doc["otherData"]

    def test_empty_and_records_only_tracers_export(self, tmp_path):
        empty = write_chrome_trace(NullTracer(), tmp_path / "empty.json")
        assert empty.read_text(encoding="utf-8") == (
            '{"traceEvents":[],"displayTimeUnit":"ms",'
            '"otherData":{"clock":"virtual microseconds"}}\n'
        )
        t = RecordingTracer()  # no `spans` attribute
        t.record(1.0, 0, "send", "am.short#1 0->1")
        t.record(2.0, 1, "deliver", "am.short#1 0->1")
        doc = json.loads(write_chrome_trace(t, tmp_path / "r.json").read_text())
        assert [e["ph"] for e in doc["traceEvents"]] == ["M", "M", "M", "M", "i", "s", "i", "f"]

    def test_truncation_is_reported_only_when_it_happened(self, tmp_path):
        rec = SpanRecorder(maxlen=2, max_spans=1)
        rec.record(0.0, 0, "k")
        rec.end(rec.begin(0.0, 0, "kept"), 1.0)
        clean = json.loads(write_chrome_trace(rec, tmp_path / "t.json").read_text())
        assert clean["otherData"] == {"clock": "virtual microseconds"}
        for i in range(4):
            rec.record(float(i), 0, "k")
        rec.begin(2.0, 0, "refused")
        lossy = json.loads(write_chrome_trace(rec, tmp_path / "t.json").read_text())
        assert lossy["otherData"] == {
            "clock": "virtual microseconds", "evicted_records": 3, "dropped_spans": 1,
        }

    def test_failed_export_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = write_chrome_trace(_traced_am_run(), tmp_path / "t.json")
        good = path.read_bytes()

        def dies_midway(tracer):
            yield '{"name":"half"}'
            raise OSError("disk full")

        monkeypatch.setattr(perfetto, "_event_texts", dies_midway)
        with pytest.raises(OSError, match="disk full"):
            write_chrome_trace(_traced_am_run(), path)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]  # temp removed
