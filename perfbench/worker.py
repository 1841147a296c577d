"""One workload in one fresh interpreter: set-up, warm-up, timed units,
optionally the traced pass, then verification.  Started by ``run.py``;
prints one JSON object as its last line of standard output.

    python perfbench/worker.py --workload micro_rmi --seed 1997 --seconds 10

The end-to-end numbers come from ``--seconds`` of units run with every
instrument off.  ``--trace 1`` then runs one more unit under the profiler
and the counter reader (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from calibrate import CALIB_NOMINAL_S, kernel_seconds  # noqa: E402
import layers  # noqa: E402
import registry  # noqa: E402
import workloads  # noqa: E402

#: timed units a run takes at least, whatever ``--seconds`` says
MIN_UNITS = 3


def _import_repro() -> None:
    """Put this checkout's ``src`` first and refuse any other ``repro``."""
    sys.path.insert(0, str(SRC))
    import repro

    found = Path(repro.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise SystemExit(f"worker: imported repro from {found}, not from {SRC}")


#: kernel runs per calibration sample
KERNEL_RUNS = 4


def _kernel() -> float:
    """Calibration sample: the mean of a few back-to-back kernel runs.

    The mean, not the minimum: the box slows down in bursts of tens of
    milliseconds, a 0.4 s unit absorbs their average, and only a mean over
    a comparable window does the same.  (Measured on a disturbed box: the
    run-to-run spread of the unit/kernel ratio was 7.7 % with the faster
    of two runs and 4-6 % with the mean of four.)"""
    return sum(kernel_seconds() for _ in range(KERNEL_RUNS)) / KERNEL_RUNS


def run_units(wl: workloads.Workload, seconds: float, quick: bool) -> dict:
    """The timed region: ``k0 u1 k1 u2 k2 ...`` — every unit bracketed by
    the calibration kernel, ``gc.collect()`` before each."""
    outcomes, wall, calib, digests = [], [], [], []
    failure = None
    k_prev = _kernel()
    first_kernel = k_prev
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        t0 = time.perf_counter()
        try:
            outcome = wl.unit()
        except Exception as exc:  # noqa: BLE001 - a failed unit is a result
            failure = f"unit raised {type(exc).__name__}: {exc}"
            break
        wall.append(time.perf_counter() - t0)
        k_next = _kernel()
        calib.append((k_prev + k_next) / 2)
        k_prev = k_next
        digests.append(workloads.digest(outcome.stats))
        if outcomes:
            outcomes[-1].keep = outcomes[-1].stats = None  # only the last is verified
        outcomes.append(outcome)
        if quick or (len(outcomes) >= MIN_UNITS and time.perf_counter() >= deadline):
            break
        wl.between_units()
    return {"outcomes": outcomes, "wall": wall, "calib": calib,
            "digests": digests, "failure": failure, "first_kernel": first_kernel}


def end_to_end(wl, timed: dict, setup_raw_s: float, peak_rss_mb: float) -> dict:
    """Every end-to-end metric as its per-unit samples; the reported value
    is their median.  Host times are ``sample_i / calib_i * CALIB_NOMINAL_S``."""
    outcomes, calib = timed["outcomes"], timed["calib"]
    host = [o.host_s if o.host_s is not None else w
            for o, w in zip(outcomes, timed["wall"])]
    unit_cal = [h / c * CALIB_NOMINAL_S for h, c in zip(host, calib)]
    items = statistics.median(o.items for o in outcomes)
    samples = {
        "work_per_s": [items / u for u in unit_cal],
        "peak_rss_mb": [peak_rss_mb],
        "setup_s": [setup_raw_s / timed["first_kernel"] * CALIB_NOMINAL_S],
    }
    units = {m.name: m.unit for m in registry.REPORTED}
    for name, values in wl.reported(outcomes).items():
        if units[name] in ("ms", "s"):  # host time: one sample per unit
            values = [v / c * CALIB_NOMINAL_S for v, c in zip(values, calib)]
        samples[name] = values
    q1, med, q3 = registry.quartiles(unit_cal)
    harness = {
        "harness.calib_ms": statistics.median(calib) * 1e3,
        "harness.noise_iqr_pct": (q3 - q1) / med * 100.0,
        "harness.work_per_s_raw": items / statistics.median(host),
        "harness.unit_ms_min": min(host) * 1e3,
        "harness.samples": len(outcomes),
    }
    return {"samples": samples, "harness": harness, "unit_cal_s": med}


def traced_pass(wl, unit_cal_s: float, unit_wall_s: float) -> tuple[dict, str | None]:
    """One more unit, set up afresh under the profiler and the handles."""
    profiler = layers.LayerProfiler()
    profiler.arm_threads()
    try:
        with layers.Handles() as handles:
            wl.setup()
            try:
                t0 = time.perf_counter()
                traced = profiler.run(wl.traced_unit)
                traced_wall = time.perf_counter() - t0
            finally:
                wl.teardown()
    finally:
        profiler.disarm_threads()
    by_layer = layers.attribute(profiler.stats(), str(SRC / "repro"))
    # every per-layer metric but the probes (their own interpreter times
    # those); one that does not apply to this workload stays 0
    out: dict[str, float] = {
        m.name: 0.0 for m in registry.PER_LAYER if m.name not in registry.PROBES
    }
    for name, entry in by_layer.items():
        out[f"{name}.self_share"] = entry["self_share"]
        out[f"{name}.calls"] = entry["calls"]
    out.update(handles.counts())
    out.update(wl.traced_counts(traced))
    out["harness.trace_overhead_ratio"] = traced_wall / unit_wall_s

    def per(layer: str, count: str, scale: float) -> float:
        n = out[count]
        return unit_cal_s * out[f"{layer}.self_share"] / n * scale if n else 0.0

    out["sim.host_ns_per_event"] = per("sim", "sim.events", 1e9)
    out["machine.host_us_per_packet"] = per("machine", "machine.packets", 1e6)
    out["obs.host_us_per_span"] = per("obs", "obs.spans", 1e6)

    profile_total = sum(entry["self_s"] for entry in by_layer.values())
    tree = layers.span_tree(wl.name, profile_total, by_layer)
    (OUT / f"trace_{wl.name}.json").write_text(json.dumps(tree, indent=1), encoding="utf-8")
    return out, workloads.digest(traced.stats)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(registry.WORKLOADS))
    ap.add_argument("--seed", type=int, default=registry.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one timed unit")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report how long it took")
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.time() when the runner started this interpreter")
    args = ap.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    OUT.mkdir(exist_ok=True)
    _import_repro()
    wl = workloads.WORKLOAD_CLASSES[args.workload](args.seed, OUT)
    try:
        wl.setup()
        wl.unit()  # warm-up: imports, stub caches, buffer pools
        wl.between_units()
        setup_raw_s = time.time() - spawned_at
        if args.setup_only:
            wl.teardown()
            first_kernel = _kernel()
            print(json.dumps({"setup_s": setup_raw_s / first_kernel * CALIB_NOMINAL_S}))
            return 0

        timed = run_units(wl, args.seconds, args.quick)
        usage = max(resource.getrusage(who).ru_maxrss
                    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        outcomes = timed["outcomes"]
        checks: list[str] = []
        if timed["failure"]:
            checks.append(timed["failure"])
        if not outcomes:
            print(json.dumps({"workload": wl.name, "checks_failed": checks,
                              "attempted": 1, "failed": 1}))
            return 1

        if len(set(timed["digests"])) != 1:
            checks.append("units of one run produced different simulated statistics")
        checks += wl.verify(outcomes[-1])
        # after verify(): reported() may use what it computed (the scorecard)
        result = end_to_end(wl, timed, setup_raw_s, usage / 1024.0)
        wl.teardown()

        per_layer = None
        if args.trace:
            untraced_timings = wl.per_layer(outcomes)  # before set-up runs again
            per_layer, traced_digest = traced_pass(
                wl, result["unit_cal_s"], statistics.median(timed["wall"]))
            per_layer.update(result["harness"])
            per_layer.update(untraced_timings)
            if traced_digest != timed["digests"][-1]:
                checks.append("the traced unit's simulated statistics differ from the untraced")

        attempted = sum(o.items for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        if timed["failure"]:
            attempted += outcomes[-1].items
            failed += outcomes[-1].items
        samples = result["samples"]
        samples["fail_ratio"] = [failed / attempted]
        samples["check_ok"] = [0.0 if checks or failed else 1.0]
        print(json.dumps({
            "workload": wl.name, "seed": args.seed, "work_item": wl.work_item,
            "attempted": attempted, "failed": failed,
            "checks_failed": checks, "sim_digest": timed["digests"][-1],
            "samples": samples, "harness": result["harness"],
            "unit_wall_s": timed["wall"], "calib_s": timed["calib"],
            "per_layer": per_layer,
        }))
        return 0
    finally:
        wl.cleanup()


if __name__ == "__main__":
    raise SystemExit(main())
