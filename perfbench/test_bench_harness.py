"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest perfbench -q

The unit tests take milliseconds.  ``test_quick_run_emits_every_metric``
runs the whole benchmark once with one timed unit per workload (about a
minute; the first time in a checkout it also fills the CLI result cache).
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import registry  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# ------------------------------------------------------------ calibrate.py


def test_calibration_kernel_is_pinned_and_does_not_import_repro():
    done = subprocess.run(
        [sys.executable, str(HERE / "calibrate.py"), "--self-test"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert f"{calibrate.KERNEL_OPS} ops" in done.stdout


def test_calibration_kernel_operation_count_is_fixed():
    assert calibrate.run_kernel() == calibrate.run_kernel()
    assert calibrate.run_kernel()[0] == calibrate.KERNEL_OPS


# --------------------------------------------------------------- layers.py

REPRO = "/checkout/src/repro"
LIB = ("/pylib",)


def _fn(path: str, name: str = "f") -> tuple:
    return (path, 1, name)


def _synthetic_profile() -> dict:
    """sim.step (1 s self) calls heappush (a builtin, 2 s) and json.dumps
    (library, 0.5 s); machine.send (3 s self) calls the same builtin (1 s);
    a file nobody knows has 0.25 s; repro/util has 0.25 s."""
    sim = _fn(f"{REPRO}/sim/engine.py", "step")
    machine = _fn(f"{REPRO}/machine/network.py", "send")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    library = _fn("/pylib/json/__init__.py", "dumps")
    unknown = _fn("/somewhere/else.py")
    util = _fn(f"{REPRO}/util/stats.py")
    return {
        sim: (10, 10, 1.0, 3.5, {}),
        machine: (5, 5, 3.0, 4.0, {}),
        builtin: (30, 30, 3.0, 3.0, {sim: (20, 20, 2.0, 2.0), machine: (10, 10, 1.0, 1.0)}),
        library: (2, 2, 0.5, 0.5, {sim: (2, 2, 0.5, 0.5)}),
        unknown: (1, 1, 0.25, 0.25, {}),
        util: (4, 4, 0.25, 0.25, {}),
    }


def test_shares_sum_to_one():
    out = layers.attribute(_synthetic_profile(), REPRO, LIB)
    assert set(out) == {*layers.LAYERS, layers.OTHER}
    assert sum(e["self_share"] for e in out.values()) == pytest.approx(1.0)
    assert sum(e["self_s"] for e in out.values()) == pytest.approx(8.0)


def test_builtin_and_library_self_time_lands_on_the_calling_layer():
    out = layers.attribute(_synthetic_profile(), REPRO, LIB)
    assert out["sim"]["self_s"] == pytest.approx(1.0 + 2.0 + 0.5)
    assert out["machine"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert out["sim"]["calls"] == 10 and out["machine"]["calls"] == 5


def test_unknown_files_and_non_layer_packages_land_in_other():
    out = layers.attribute(_synthetic_profile(), REPRO, LIB)
    assert out[layers.OTHER]["self_s"] == pytest.approx(0.25 + 0.25)
    assert out[layers.OTHER]["calls"] == 1 + 4


def test_builtin_without_callers_lands_in_other():
    orphan = {("~", 0, "<built-in method gc.collect>"): (1, 1, 1.0, 1.0, {})}
    out = layers.attribute(orphan, REPRO, LIB)
    assert out[layers.OTHER]["self_share"] == pytest.approx(1.0)


def test_library_cycle_with_one_way_in_lands_on_the_layer_that_entered_it():
    obs = _fn(f"{REPRO}/obs/perfetto.py", "write")
    dump = _fn("/pylib/json/__init__.py", "dump")
    enc_dict = _fn("/pylib/json/encoder.py", "_iterencode_dict")
    enc_list = _fn("/pylib/json/encoder.py", "_iterencode_list")
    profile = {
        obs: (1, 1, 1.0, 7.0, {}),
        dump: (1, 1, 1.0, 6.0, {obs: (1, 1, 1.0, 6.0)}),
        enc_dict: (9, 9, 3.0, 5.0, {dump: (1, 1, 1.0, 5.0), enc_list: (6, 6, 1.5, 2.0),
                                    enc_dict: (2, 2, 0.5, 0.5)}),
        enc_list: (6, 6, 2.0, 3.0, {enc_dict: (6, 6, 2.0, 3.0)}),
    }
    out = layers.attribute(profile, REPRO, LIB)
    assert out["obs"]["self_share"] == pytest.approx(1.0)
    assert out["obs"]["calls"] == 1


def test_profiler_sees_threads_started_while_armed():
    import threading

    def spin():
        return sum(i * i for i in range(20_000))

    profiler = layers.LayerProfiler()
    profiler.arm_threads()
    try:
        thread = threading.Thread(target=spin)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        profiler.run(spin)
    finally:
        profiler.disarm_threads()
    spins = [v for k, v in profiler.stats().items() if k[2] == "spin"]
    assert spins and spins[0][1] == 2  # main thread + the armed thread


# ---------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_equals_what_the_code_registers():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == registry.benchmark_json()


def test_benchmark_json_meets_the_contract():
    spec = registry.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    for m in spec["end_to_end"]:
        assert 0 <= m["bound"] <= 0.25 and m["better"] in ("higher", "lower")
        assert UNIT.match(m["unit"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert len(json.dumps(spec)) <= 64 * 1024


def test_every_layer_has_its_share_and_every_probe_a_scenario():
    per_layer = {m.name for m in registry.PER_LAYER}
    for layer in (*layers.LAYERS, layers.OTHER):
        assert {f"{layer}.self_share", f"{layer}.calls"} <= per_layer
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from scenarios import SCENARIOS

    assert set(registry.PROBES) <= per_layer
    assert set(registry.PROBES.values()) <= set(SCENARIOS)


# -------------------------------------------------------------- compare.py

LOWER = registry.Metric("t_ms", "ms", "lower", 0.10)
HIGHER = registry.Metric("per_s", "1/s", "higher", 0.10)


@pytest.mark.parametrize("metric,a,b,expected", [
    (LOWER, [100, 101, 99, 100], [100, 102, 99, 101], "unchanged"),
    (LOWER, [100, 101, 99, 100], [120, 121, 119, 120], "regressed"),
    (LOWER, [100, 101, 99, 100], [80, 81, 79, 80], "better"),
    (LOWER, [100, 130, 80, 100], [105, 135, 85, 100], "unresolved"),
    (LOWER, [100, 130, 90, 100], [50, 60, 55, 52], "better"),       # all of B below all of A
    (LOWER, [100.0], [99.9], "unchanged"),                          # single samples
    (LOWER, [100.0], [80.0], "better"),
    (LOWER, [100, 101, 99], [100, 160, 99], "unresolved"),          # n < 4: the range
    (HIGHER, [100, 101, 99, 100], [80, 81, 79, 80], "regressed"),
    (HIGHER, [100, 101, 99, 100], [120, 121, 119, 120], "better"),
    (registry.Metric("fail_ratio", "ratio", "lower", 0.0), [0.0], [0.01], "regressed"),
    (registry.Metric("check_ok", "bool", "higher", 0.0), [1.0], [1.0], "unchanged"),
])
def test_verdicts(metric, a, b, expected):
    assert compare.verdict(metric, [float(x) for x in a], [float(x) for x in b]) == expected


# ------------------------------------------------------------- whole run


def test_quick_run_emits_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--traced", "--json", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data["workloads"]) == set(registry.WORKLOADS)
    assert set(data["probes"]) == set(registry.PROBES)
    everywhere = {m.name for m in (*registry.END_TO_END, *registry.REPORTED)
                  if not m.workloads}
    layer_names = {m.name for m in registry.PER_LAYER} - set(registry.PROBES)
    for name, result in data["workloads"].items():
        expected = everywhere | {m.name for m in registry.REPORTED if name in m.workloads}
        assert set(result["samples"]) == expected, name
        assert set(result["per_layer"]) == layer_names, name
        values = [v for s in result["samples"].values() for v in s]
        values += list(result["per_layer"].values())
        assert all(math.isfinite(v) for v in values), name
        assert result["samples"]["check_ok"] == [1.0], result["checks_failed"]
        assert result["samples"]["fail_ratio"] == [0.0], name
        shares = [v for k, v in result["per_layer"].items() if k.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), name
    assert data["workloads"]["paper_apps"]["samples"]["claims_in_band_ratio"] == [1.0]
    for metric_name in ("work_per_s", "peak_rss_mb", "setup_s", "sim_digest"):
        assert metric_name in done.stdout
