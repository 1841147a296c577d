"""Integration: the congestion artifact (experiments.congestion).

The acceptance gate for the hierarchical fabrics lives here: under an
all-to-all load ladder the fat-tree's achieved bandwidth must plateau
(its oversubscribed upper links saturate) while the flat crossbar keeps
climbing linearly — plus determinism, serialization round-trips, and the
report-writer plumbing.
"""

import pytest

from repro.errors import ReproError
from repro.experiments import congestion
from repro.experiments.congestion import CongestionResult
from repro.experiments.report import write_all


def _small_run(**kw):
    kw.setdefault("nodes", 16)
    kw.setdefault("topology", "fattree:arity=4,fatness=1")
    kw.setdefault("loads", (1, 2, 4, 8))
    kw.setdefault("msg_bytes", 2048)
    return congestion.run(**kw)


class TestSaturation:
    def test_fattree_plateaus_crossbar_does_not(self):
        result = _small_run()
        assert result.saturates()
        first, last = result.saturation[0], result.saturation[-1]
        flat_speedup = last.flat_mbps / first.flat_mbps
        # the crossbar scales ~linearly with offered load (8x ladder)
        assert flat_speedup > 6.0
        # the fat-tree's curve flattened well below that
        assert last.topo_mbps / first.topo_mbps < flat_speedup / 2
        # and its hottest link is pinned at capacity
        assert result.saturation[-1].topo_max_util > 0.9

    def test_ring_also_congests(self):
        result = _small_run(topology="ring")
        last = result.saturation[-1]
        assert last.topo_elapsed_us > last.flat_elapsed_us
        assert last.topo_queued_us > 0.0

    def test_incast_pins_the_victims_ejection_link(self):
        result = _small_run()
        worst = result.incast[-1]
        assert worst.hot_link == "acc-down[0]"
        assert worst.hot_util > 0.9
        # elapsed grows ~linearly with load on the serialized hot link
        assert result.incast[-1].elapsed_us > 3 * result.incast[0].elapsed_us

    def test_bisection_rows_cover_the_ladder(self):
        result = _small_run()
        assert [p.load for p in result.bisection] == [1, 2, 4, 8]
        assert all(p.max_util > 0.0 for p in result.bisection)


class TestValidation:
    def test_rejects_odd_or_tiny_node_counts(self):
        with pytest.raises(ReproError):
            congestion.run(nodes=15)
        with pytest.raises(ReproError):
            congestion.run(nodes=2)

    def test_rejects_uncontended_topology(self):
        with pytest.raises(ReproError):
            congestion.run(nodes=16, topology="flat")


class TestDeterminismAndSerde:
    def test_rerun_is_bit_identical(self):
        a = _small_run(loads=(1, 4))
        b = _small_run(loads=(1, 4))
        assert a.to_json() == b.to_json()

    def test_json_round_trip_exact(self):
        result = _small_run(loads=(1, 2))
        clone = CongestionResult.from_json(result.to_json())
        assert clone.to_json() == result.to_json()
        assert clone.saturates() == result.saturates()

    def test_csv_shape(self):
        result = _small_run(loads=(1, 2))
        lines = result.csv().strip().splitlines()
        assert lines[0] == "pattern,load,total_bytes,elapsed_us,mbps,max_util,queued_us"
        # saturation + incast + bisection rows, one per load each
        assert len(lines) == 1 + 3 * 2

    def test_render_names_the_patterns(self):
        text = _small_run(loads=(1, 2)).render()
        assert "saturation" in text
        assert "Incast" in text or "incast" in text
        assert "Bisection" in text or "bisection" in text


class TestReportPlumbing:
    def test_write_all_emits_txt_and_csv(self, tmp_path):
        paths = write_all(tmp_path, artifacts=("congestion",))
        names = {p.name for p in paths}
        assert names == {"congestion.txt", "congestion.csv", "manifest.json"}
        for p in paths:
            assert p.stat().st_size > 0
