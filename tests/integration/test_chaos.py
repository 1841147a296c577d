"""Integration tests for the seeded chaos matrix (experiments.chaos)."""

import pytest

from repro.experiments import chaos
from repro.experiments.chaos import ChaosResult, build_plan
from tests.integration.test_runner_parallel import cli


@pytest.fixture(scope="module")
def result():
    # small but real: enough plans to exercise kills, pauses and
    # rule-only scenarios (seeds are derived, so this set is fixed)
    return chaos.run(plans=5, seed=1997)


class TestInvariants:
    def test_all_scenarios_clean(self, result):
        assert result.plans == 5
        assert len(result.scenarios) == 5
        assert result.survived == 5
        assert result.hangs == 0
        assert result.conservation_failures == 0
        assert result.mismatches == 0
        assert result.replay_failures == 0
        assert result.all_ok

    def test_every_record_has_all_columns(self, result):
        for s in result.scenarios:
            for col in chaos.CSV_COLUMNS:
                assert col in s, f"missing column {col}"
            assert s["correct"] and s["conserved"] and s["replay_ok"]
            assert not s["hung"]
            assert s["attempts"] >= 1
            assert s["elapsed_us"] > 0.0

    def test_at_least_one_scenario_recovers(self, result):
        """The derived seeds must actually exercise the restart path —
        a chaos suite where nothing ever dies tests nothing."""
        assert result.recovered >= 1
        recovered = [s for s in result.scenarios if s["attempts"] > 1]
        for s in recovered:
            assert s["dead"] != ""
            assert s["restart_step"] >= 0

    def test_whole_run_replays_identically(self, result):
        again = chaos.run(plans=5, seed=1997)
        assert again.scenarios == result.scenarios


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        a = build_plan(12345, 4, 1000.0)
        b = build_plan(12345, 4, 1000.0)
        assert repr(a) == repr(b)
        assert [repr(r) for r in a.rules] == [repr(r) for r in b.rules]
        assert [(nf.nid, nf.start, nf.duration) for nf in a.node_faults] == [
            (nf.nid, nf.start, nf.duration) for nf in b.node_faults
        ]

    def test_different_seeds_differ(self):
        reprs = {repr(build_plan(s, 4, 1000.0)) for s in range(8)}
        assert len(reprs) > 1

    def test_rules_only_touch_the_data_plane(self):
        for s in range(16):
            for rule in build_plan(s, 4, 1000.0).rules:
                assert rule.kind == "am."  # heartbeats must keep flowing

    def test_kills_land_inside_the_horizon(self):
        horizon = 2_000.0
        for s in range(16):
            for nf in build_plan(s, 4, horizon).node_faults:
                assert 0.0 < nf.start < horizon


class TestResultPlumbing:
    def test_csv_shape(self, result):
        lines = result.csv().strip().split("\n")
        assert lines[0] == ",".join(chaos.CSV_COLUMNS)
        assert len(lines) == 1 + result.plans
        for line in lines[1:]:
            assert len(line.split(",")) == len(chaos.CSV_COLUMNS)

    def test_render_mentions_verdicts(self, result):
        text = result.render()
        assert "survived" in text
        assert "recovered" in text
        assert "0 hangs" in text

    def test_json_round_trip(self, result):
        clone = ChaosResult.from_json(result.to_json())
        assert clone.scenarios == result.scenarios
        assert clone.all_ok == result.all_ok
        assert clone.csv() == result.csv()

    def test_cli_writes_csv_and_exits_zero(self, tmp_path, monkeypatch, capsys):
        argv = ["run", "chaos", "--param", "plans=2", "--no-cache",
                "--out", str(tmp_path)]
        code, out, _ = cli(argv, tmp_path / "unused", monkeypatch, capsys)
        assert code == 0
        assert f"wrote {tmp_path / 'chaos.csv'}" in out
        assert "Chaos matrix" in (tmp_path / "chaos.txt").read_text()
        assert (tmp_path / "chaos.csv").read_text() == chaos.run(plans=2).csv()

    def test_cli_exits_one_on_a_broken_invariant(self, tmp_path, monkeypatch, capsys):
        """`run` is `chaos.main`'s exit status now: a result that can fail
        and did makes the job's exit status 1, printed or written."""
        broken = chaos.run(plans=1)
        broken.mismatches = 1
        assert not broken.all_ok
        monkeypatch.setattr(chaos, "run", lambda **params: broken)
        argv = ["run", "chaos", "--no-cache"]
        assert cli(argv, tmp_path / "unused", monkeypatch, capsys)[0] == 1
        argv += ["--out", str(tmp_path)]
        assert cli(argv, tmp_path / "unused", monkeypatch, capsys)[0] == 1
