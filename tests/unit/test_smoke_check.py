"""The benchmark gate's verdicts (``benchmarks/smoke_check.py``), judged on
fake scenarios, a fake clock and a fake calibration kernel: no scenario
runs here.

The kernel always takes ``CALIB_NOMINAL_S`` and advances the clock by as
much, as a real run does, so a fake scenario that advances the clock by
``s`` seconds per call reads ``s * 1000`` calibrated milliseconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke_check():
    saved = sys.path[:]
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import smoke_check
    finally:
        sys.path[:] = saved
    return smoke_check


@pytest.fixture
def gate(smoke_check, monkeypatch, tmp_path):
    """``run(scenarios, committed, *argv) -> exit status``, where
    ``scenarios`` maps a name to ``(seconds per call, check passes)``;
    ``None`` seconds make the scenario raise."""
    clock = [0.0]
    calls: dict[str, int] = {}
    monkeypatch.setattr(smoke_check, "perf_counter", lambda: clock[0])

    def kernel_seconds():
        clock[0] += smoke_check.CALIB_NOMINAL_S
        return smoke_check.CALIB_NOMINAL_S

    monkeypatch.setattr(smoke_check, "kernel_seconds", kernel_seconds)

    def fake(name, seconds):
        def call(stats_out=None):
            calls[name] = calls.get(name, 0) + 1
            if seconds is None:
                raise RuntimeError("scenario broke")
            clock[0] += seconds
            return name

        return call

    def run(scenarios, committed, *argv):
        monkeypatch.setattr(smoke_check, "SCENARIOS", {
            name: fake(name, seconds) for name, (seconds, _) in scenarios.items()
        })
        monkeypatch.setattr(smoke_check, "CHECKS", {
            name: (lambda value, stats, ok=ok: ok) for name, (_, ok) in scenarios.items()
        })
        bench = tmp_path / "BENCH_simulator.json"
        bench.write_text(json.dumps({"scenarios": committed}))
        monkeypatch.setattr(smoke_check, "BENCH_JSON", bench)
        calls.clear()
        return smoke_check.main(list(argv))

    run.calls = calls
    return run


def _line(out: str, name: str) -> str:
    return next(line for line in out.splitlines() if line.startswith(name))


def test_within_the_gate_passes(gate, capsys):
    status = gate({"a": (0.012, True)}, {"a": {"calib_ms": 10.0}})
    out = capsys.readouterr().out
    assert status == 0
    assert "12.000 calib ms" in _line(out, "a") and _line(out, "a").endswith("ok")


def test_a_batch_lasts_about_one_kernel_run(gate, smoke_check, capsys):
    status = gate(
        {"short": (0.001, True), "long": (0.020, True)},
        {"short": {"calib_ms": 1.0}, "long": {"calib_ms": 20.0}},
    )
    capsys.readouterr()
    assert status == 0
    # warm-up, sizing call, then BATCHES batches of 13 ms / 1 ms calls;
    # a scenario longer than the kernel is timed one call per batch
    assert gate.calls == {
        "short": 2 + smoke_check.BATCHES * 13,
        "long": 2 + smoke_check.BATCHES,
    }


def test_a_ratio_over_its_threshold_is_a_regression(gate, capsys):
    status = gate(
        {"slow": (0.013, True), "fine": (0.010, True)},
        {"slow": {"calib_ms": 10.0}, "fine": {"calib_ms": 10.0}},
        "--threshold", "0.25",
    )
    captured = capsys.readouterr()
    assert status == 1
    assert "1.30x" in _line(captured.out, "slow")
    assert _line(captured.out, "slow").endswith("REGRESSION")
    assert _line(captured.out, "fine").endswith("ok")
    assert "1 scenario(s) failed" in captured.err and "slow" in captured.err


def test_a_failed_warm_up_check_is_a_failure(gate, capsys):
    status = gate({"wrong": (0.001, False)}, {"wrong": {"calib_ms": 10.0}})
    captured = capsys.readouterr()
    assert status == 1
    assert "CHECK FAILED" in _line(captured.out, "wrong")
    assert "wrong (check failed)" in captured.err
    assert gate.calls == {"wrong": 1}  # the warm-up only: nothing is timed


def test_a_crash_is_a_failure_and_the_rest_is_still_measured(gate, capsys):
    status = gate(
        {"boom": (None, True), "fine": (0.010, True)},
        {"boom": {"calib_ms": 1.0}, "fine": {"calib_ms": 10.0}},
    )
    captured = capsys.readouterr()
    assert status == 1
    assert "CRASH  RuntimeError: scenario broke" in _line(captured.out, "boom")
    assert _line(captured.out, "fine").endswith("ok")
    assert "boom (crashed)" in captured.err


def test_a_per_scenario_threshold_overrides_the_global_one(gate, capsys):
    status = gate(
        {"loose": (0.013, True), "tight": (0.011, True)},
        {"loose": {"calib_ms": 10.0, "threshold": 0.5},
         "tight": {"calib_ms": 10.0, "threshold": 0.05}},
        "--threshold", "0.25",
    )
    captured = capsys.readouterr()
    assert status == 1
    assert _line(captured.out, "loose").endswith("ok")
    assert "gate 50%" in _line(captured.out, "loose")
    assert _line(captured.out, "tight").endswith("REGRESSION")
    assert "gate 5%" in _line(captured.out, "tight")


def test_a_scenario_with_no_committed_value_is_skipped(gate, capsys):
    status = gate({"new": (0.020, True)}, {"new": {"note": "no value yet"}})
    out = capsys.readouterr().out
    assert status == 0
    assert "20.000 calib ms" in _line(out, "new")
    assert "no committed calib_ms: skipped" in _line(out, "new")


def test_every_committed_scenario_is_registered_with_a_check(smoke_check):
    committed = json.loads(smoke_check.BENCH_JSON.read_text())["scenarios"]
    assert set(committed) <= set(smoke_check.SCENARIOS)
    assert set(smoke_check.CHECKS) == set(smoke_check.SCENARIOS)
    assert all("calib_ms" in entry for entry in committed.values())
