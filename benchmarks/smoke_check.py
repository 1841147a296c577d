"""CI benchmark-regression smoke check.

Times each registered scenario (min over a few repetitions — min is the
right statistic for wall-clock floors: noise only ever adds time) and
compares against the committed minimums in ``BENCH_simulator.json``.
Exits non-zero if any scenario is more than ``--threshold`` slower than
its committed ``wall_ms`` (a per-scenario ``threshold`` in the JSON
overrides the global one — long scenarios can afford a tighter gate
than 10 ms ones).

Every scenario is measured even when an earlier one regressed *or
crashed*: one broken scenario must not mask the state of the rest, so
the report always covers the full committed set and the exit status
reflects every failure at once.

This is deliberately cruder than the pytest-benchmark suite: a handful
of repetitions, no statistics — just enough to catch a hot-path
regression (a 25% slowdown on a 10 ms scenario is far outside CI timer
noise at min-of-5) without burning CI minutes.

Usage::

    PYTHONPATH=src python benchmarks/smoke_check.py
    PYTHONPATH=src python benchmarks/smoke_check.py --scenario ccpp_rmi_0word_100iters
    PYTHONPATH=src python benchmarks/smoke_check.py --threshold 0.25 --repeats 5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from scenarios import SCENARIOS  # noqa: E402

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"


def measure(name: str, repeats: int) -> float:
    """Min wall-clock milliseconds over ``repeats`` runs (1 warmup)."""
    fn = SCENARIOS[name]
    fn()  # warmup: imports, stub caches, buffer pools
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


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
        help="max tolerated slowdown vs committed wall_ms (default 0.25 = 25%%)",
    )
    ap.add_argument(
        "--repeats", type=int, default=5, help="timed repetitions per scenario"
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

    failures = []
    width = max(len(n) for n in names)
    for name in names:
        entry = committed.get(name, {})
        floor = entry.get("wall_ms")
        try:
            got = measure(name, args.repeats)
        except Exception as exc:  # noqa: BLE001 - keep checking the rest
            print(f"{name:<{width}}  CRASH  {type(exc).__name__}: {exc}")
            failures.append(f"{name} (crashed)")
            continue
        if floor is None:
            print(f"{name:<{width}}  {got:9.3f} ms  (no committed floor — skipped)")
            continue
        threshold = entry.get("threshold", args.threshold)
        ratio = got / floor
        verdict = "ok" if ratio <= 1.0 + threshold else "REGRESSION"
        print(
            f"{name:<{width}}  {got:9.3f} ms  vs {floor:9.3f} ms committed  "
            f"({ratio:5.2f}x, gate {threshold:.0%})  {verdict}"
        )
        if verdict != "ok":
            failures.append(name)

    if failures:
        print(
            f"\n{len(failures)} scenario(s) failed (regression or crash): "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(names)} scenario(s) within their gates of committed minimums")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
