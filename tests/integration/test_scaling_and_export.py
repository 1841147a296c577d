"""Integration: the scaling experiment and CSV export."""

import csv
import io

import pytest

from repro.experiments import figure5, figure6, scaling, table4


@pytest.fixture(scope="module")
def scale():
    return scaling.run(sizes=(20, 200, 4000))


class TestScaling:
    def test_small_transfer_is_bounded_constant(self, scale):
        """At Table 4's 20 doubles the CC++ penalty is a modest factor."""
        assert 1.5 <= scale.points[0].ratio <= 3.0

    def test_hit_appears_as_volume_grows(self, scale):
        """The paper: "the problem size has to be increased by a factor of
        about 200" for the copies/marshalling to really hurt."""
        ratios = scale.ratios()
        assert ratios == sorted(ratios)
        assert ratios[-1] > 1.8 * ratios[0]

    def test_absolute_times_grow_with_volume(self, scale):
        for lang in ("sc_us", "cc_us"):
            vals = [getattr(p, lang) for p in scale.points]
            assert vals == sorted(vals)

    def test_default_sizes_reach_the_significant_hit(self):
        """The artifact's own sizes, up to 20 000 doubles (1000x Table 4's)."""
        ratios = scaling.run().ratios()
        assert ratios == sorted(ratios), "penalty must grow with volume"
        assert ratios[-1] > 2 * ratios[0]

    def test_render(self, scale):
        text = scale.render()
        assert "factor of about 200" in text
        assert "ratio" in text


class TestExport:
    def test_table4_csv_parses_and_covers_rows(self):
        result = table4.run(iters=5)
        text = result.csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        benchmarks = {r["benchmark"] for r in rows}
        assert "0-Word Simple" in benchmarks
        assert "am_base_rtt" in benchmarks
        cc_rows = [r for r in rows if r["language"] == "ccpp"]
        assert len(cc_rows) == 10
        for r in cc_rows:
            assert float(r["total_us"]) > 0

    def test_figure5_csv(self):
        result = figure5.run(quick=True, pcts=(1.0,), versions=("ghost",), steps=1)
        text = result.csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2  # ghost x 100% x two languages
        for r in rows:
            total = sum(
                float(r[c]) for c in ("cpu", "net", "thread_mgmt", "thread_sync", "runtime")
            )
            assert total == pytest.approx(1.0, abs=0.01)

    def test_figure6_csv(self):
        result = figure6.run(quick=True, water_versions=("prefetch",), include_lu=False)
        text = result.csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert {r["language"] for r in rows} == {"splitc", "ccpp"}
        normalized = {
            r["app"]: float(r["normalized"]) for r in rows if r["language"] == "splitc"
        }
        assert all(v == pytest.approx(1.0) for v in normalized.values())
