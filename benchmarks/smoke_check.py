"""CI benchmark-regression gate, in perfbench's calibrated milliseconds.

Each scenario committed in ``BENCH_simulator.json`` is called once
untimed — the warm-up (imports, stub caches, buffer pools), whose result
must pass the scenario's check in ``scenarios.py`` — and then timed in
``BATCHES`` batches of calls.  A batch lasts about one run of the
calibration kernel in ``perfbench/calibrate.py`` and sits between two
kernel runs.  The scenario's value is the median over its batches of
(seconds per call / mean of the two kernel runs) x ``CALIB_NOMINAL_S``:
its cost in kernel runs, read as milliseconds on the box the kernel was
pinned on.  Frequency drift, steal time and a faster or slower machine
move a batch and its kernel runs together, so a committed ``calib_ms``
holds across machines where raw milliseconds do not.

The gate fails (exit status 1) when a scenario reads more than
``--threshold`` over its committed ``calib_ms`` (a per-scenario
``threshold`` in the JSON overrides the global one), crashes, or fails
its warm-up check.  Every scenario is measured even when an earlier one
failed, so the report covers the whole committed set at once.  A
scenario with no committed ``calib_ms`` is measured and reported as
skipped.

    PYTHONPATH=src python benchmarks/smoke_check.py
    PYTHONPATH=src python benchmarks/smoke_check.py --scenario tree_allreduce
    PYTHONPATH=src python benchmarks/smoke_check.py --threshold 0.25
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "perfbench"))

from calibrate import CALIB_NOMINAL_S, kernel_seconds  # noqa: E402
from scenarios import CHECKS, SCENARIOS  # noqa: E402

BENCH_JSON = ROOT / "BENCH_simulator.json"
#: timed batches per scenario; its value is their median
BATCHES = 15


def warm_up(name: str) -> str | None:
    """Call ``name`` once, untimed: what is wrong with its result, or
    ``None`` when the scenario's check passes."""
    stats: dict = {}
    value = SCENARIOS[name](stats_out=stats)
    if CHECKS[name](value, stats):
        return None
    return f"returned {value!r:.80} with stats {stats}"


def measure(name: str) -> list[float]:
    """Calibrated milliseconds per call of ``name``, one per batch."""
    fn = SCENARIOS[name]
    t0 = perf_counter()
    fn()
    elapsed = perf_counter() - t0
    calls = max(1, round(kernel_seconds() / elapsed))
    samples = []
    for _ in range(BATCHES):
        gc.collect()
        before = kernel_seconds()
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        per_call = (perf_counter() - t0) / calls
        calib = (before + kernel_seconds()) / 2
        samples.append(per_call / calib * CALIB_NOMINAL_S * 1e3)
    return samples


def gate(names: list[str], committed: dict, threshold: float) -> list[str]:
    """Check and measure each of ``names``, print one verdict line per
    scenario, and return the failures."""
    failures = []
    width = max(len(n) for n in names)
    for name in names:
        entry = committed.get(name, {})
        try:
            problem = warm_up(name)
            samples = [] if problem else measure(name)
        except Exception as exc:  # noqa: BLE001 - keep checking the rest
            print(f"{name:<{width}}  CRASH  {type(exc).__name__}: {exc}")
            failures.append(f"{name} (crashed)")
            continue
        if problem:
            print(f"{name:<{width}}  CHECK FAILED  {problem}")
            failures.append(f"{name} (check failed)")
            continue
        q1, got, q3 = statistics.quantiles(samples, n=4)
        shown = f"{got:9.3f} calib ms (IQR {(q3 - q1) / got:4.0%})"
        ref = entry.get("calib_ms")
        if ref is None:
            print(f"{name:<{width}}  {shown}  no committed calib_ms: skipped")
            continue
        limit = entry.get("threshold", threshold)
        ratio = got / ref
        verdict = "ok" if ratio <= 1.0 + limit else "REGRESSION"
        print(
            f"{name:<{width}}  {shown}  vs {ref:9.3f} committed  "
            f"({ratio:5.2f}x, gate {limit:.0%})  {verdict}"
        )
        if verdict != "ok":
            failures.append(name)
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="check only this scenario (repeatable; default: all committed)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max tolerated slowdown vs committed calib_ms (default 0.25 = 25%%)",
    )
    ap.add_argument(
        "--list", action="store_true", help="list known scenarios and exit"
    )
    args = ap.parse_args(argv)

    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0

    committed = json.loads(BENCH_JSON.read_text(encoding="utf-8"))["scenarios"]
    names = args.scenario if args.scenario else list(committed)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(SCENARIOS)}", file=sys.stderr)
        return 2

    failures = gate(names, committed, args.threshold)
    if failures:
        print(
            f"\n{len(failures)} scenario(s) failed (regression, crash or "
            f"check): {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(names)} scenario(s) within their gates of committed calib_ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
