"""Unit tests for tracing, breakdown rendering, table1 counting, and the
paper reference data."""

from pathlib import Path

import pytest

from repro.experiments import paper, table1
from repro.experiments.breakdown import BreakdownRow, render_rows
from repro.experiments.table1 import count_file, count_package
from repro.sim.trace import NullTracer, RecordingTracer


class TestTracers:
    def test_null_tracer_accepts_everything(self):
        NullTracer().record(1.0, 0, "send", "detail")

    def test_recording_tracer_keeps_records(self):
        t = RecordingTracer()
        t.record(1.0, 0, "send", "a")
        t.record(2.0, 1, "deliver", "b")
        assert len(t) == 2
        assert t.of_kind("send")[0].detail == "a"
        assert t.of_kind("deliver")[0].node == 1

    def test_kind_filter(self):
        t = RecordingTracer(kinds={"send"})
        t.record(1.0, 0, "send")
        t.record(1.0, 0, "deliver")
        assert len(t) == 1

    def test_bounded_length(self):
        t = RecordingTracer(maxlen=3)
        for i in range(10):
            t.record(float(i), 0, "send", str(i))
        assert len(t) == 3
        assert [r.detail for r in t.records] == ["7", "8", "9"]

    def test_clear(self):
        t = RecordingTracer()
        t.record(1.0, 0, "send")
        t.clear()
        assert len(t) == 0

    def test_cluster_integration(self):
        """A traced cluster records sends and deliveries."""
        from repro.am import install_am
        from repro.machine.cluster import Cluster

        tracer = RecordingTracer()
        cluster = Cluster(2, tracer=tracer)
        eps = install_am(cluster)
        eps[1].register_handler("x", lambda *a: iter(()))

        def main(node):
            yield from node.service("am").send_short(1, "x", nbytes=12)

        def server(node):
            yield from node.service("am").wait_and_poll()

        cluster.launch(1, server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, main(cluster.nodes[0]))
        cluster.run()
        assert tracer.of_kind("send")
        assert tracer.of_kind("deliver")


class TestBreakdownRow:
    def _row(self, breakdown, elapsed=100.0, normalized=1.5):
        return BreakdownRow(
            label="x", language="ccpp", elapsed_us=elapsed,
            breakdown=breakdown, normalized=normalized,
        )

    def test_fractions_sum_to_one(self):
        row = self._row({"cpu": 10.0, "net": 20.0, "runtime": 10.0, "idle": 60.0})
        frac = row.component_fractions()
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_idle_folds_into_net(self):
        row = self._row({"net": 10.0, "idle": 30.0, "cpu": 60.0})
        frac = row.component_fractions()
        assert frac["net"] == pytest.approx(0.4)

    def test_empty_breakdown_is_zeros(self):
        frac = self._row({}).component_fractions()
        assert all(v == 0.0 for v in frac.values())

    def test_render_rows_contains_labels(self):
        text = render_rows(
            "T", [self._row({"cpu": 1.0, "net": 1.0})]
        )
        assert "T" in text and "ccpp" in text and "1.50" in text


class TestTable1Counting:
    def test_count_file_strips_docstrings_and_comments(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(
            '"""Module docstring\nspanning lines."""\n'
            "# a comment\n"
            "\n"
            "def f():\n"
            '    """doc"""\n'
            "    return 1  # trailing comment still code\n"
        )
        size = count_file(f)
        assert size.total_lines == 7
        # code lines: 'def f():' and 'return 1  # trailing...' (a trailing
        # comment does not disqualify a code line)
        assert size.code_lines == 2

    def test_count_package_aggregates(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("y = 2\nz = 3\n")
        size = count_package(tmp_path)
        assert size.files == 2
        assert size.total_lines == 3
        assert size.code_lines == 3

    def test_empty_package(self, tmp_path):
        size = count_package(tmp_path)
        assert size.files == 0 and size.total_lines == 0

    def test_measured_table_counts_this_repository(self):
        sizes = table1.run().sizes
        assert sizes["CC++ runtime"].code_lines > 0
        assert sizes["Split-C runtime"].code_lines > 0
        # the Nexus baseline reuses the CC++ engine: tiny by construction,
        # mirroring the paper's point that the lean runtime replaces 39 kLoC
        assert (
            sizes["Nexus baseline (profile reuse)"].code_lines
            < sizes["CC++ runtime"].code_lines / 5
        )


class TestPaperData:
    def test_table4_components_sum_to_totals(self):
        """The transcription itself must be internally consistent."""
        for name, row in paper.TABLE4.items():
            total = row.cc_am + row.cc_threads + row.cc_runtime
            assert total == pytest.approx(row.cc_total, abs=2.0), name

    def test_thread_time_matches_op_counts(self):
        c = paper.THREAD_COSTS_US
        for name, row in paper.TABLE4.items():
            predicted = (
                row.cc_yield * c["context_switch"]
                + row.cc_create * c["create"]
                + row.cc_sync * c["sync_op"]
            )
            assert predicted == pytest.approx(row.cc_threads, abs=2.0), name

    def test_splitc_columns_sum(self):
        for name, row in paper.TABLE4.items():
            if row.sc_total is not None:
                assert row.sc_am + row.sc_runtime == pytest.approx(
                    row.sc_total, abs=1.5
                ), name

    def test_figure_data_ratios(self):
        f5 = paper.FIGURE5_ABS_100PCT_S
        assert f5["base"]["ccpp"] / f5["base"]["splitc"] == pytest.approx(2.0, abs=0.1)
        f6 = paper.FIGURE6_ABS_S
        assert f6[("water-atomic", 512)]["ccpp"] / f6[("water-atomic", 512)][
            "splitc"
        ] == pytest.approx(5.6, abs=0.1)
