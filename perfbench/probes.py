"""Per-layer probes: calibrated medians of the scenario callables in
``benchmarks/scenarios.py``, each of which drives one layer through its
public functions.  Run in its own fresh interpreter by ``run.py``.

A round times every probe once between two calibration-kernel samples;
a probe's value is ``median_round(probe / calib) * CALIB_NOMINAL_S``.

    python perfbench/probes.py --seconds 3
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from calibrate import CALIB_NOMINAL_S, kernel_seconds  # noqa: E402
from registry import PROBES  # noqa: E402

#: rounds a probe run takes at least, whatever ``--seconds`` says
MIN_ROUNDS = 15


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--quick", action="store_true", help="three rounds")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from scenarios import SCENARIOS

    probes = {metric: SCENARIOS[scenario] for metric, scenario in PROBES.items()}
    for fn in probes.values():
        fn()  # warm-up: imports, stub caches, buffer pools
    ratios: dict[str, list[float]] = {metric: [] for metric in probes}
    min_rounds = 3 if args.quick else MIN_ROUNDS
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < min_rounds or (not args.quick and time.perf_counter() < deadline):
        gc.collect()
        k0 = (kernel_seconds() + kernel_seconds()) / 2
        taken = {}
        for metric, fn in probes.items():
            t0 = time.perf_counter()
            fn()
            taken[metric] = time.perf_counter() - t0
        calib = (2 * k0 + kernel_seconds() + kernel_seconds()) / 4
        for metric, seconds in taken.items():
            ratios[metric].append(seconds / calib)
        rounds += 1
    print(json.dumps({
        "rounds": rounds,
        "probes": {metric: statistics.median(r) * CALIB_NOMINAL_S * 1e3
                   for metric, r in ratios.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
