"""The benchmark: eight workloads, end-to-end metrics, host time by layer.

Report form — runs the workloads one after another, each in a fresh
interpreter, prints every metric by name with its unit, checks the outputs::

    python perfbench/run.py [--seed N] [--workload NAME] [--traced] [--quick] [--json OUT]

Driver form — one run of one workload, ending in one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics for ``--trace 0``, the per-layer ones for ``--trace 1``)::

    python perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Exits non-zero when a check fails or a worker cannot run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import registry  # noqa: E402
import workloads  # noqa: E402

#: extra set-up-only interpreters per run; ``setup_s`` is the median of
#: these and the measuring interpreter's own set-up
EXTRA_SETUPS = 2
#: share of ``--seconds`` a driver-form traced run spends on untraced units
#: (they feed the harness.* and service.* timings); the rest is for the
#: traced unit and the probes
TRACED_UNTRACED_SHARE = 0.4
PROBE_SECONDS = 3.0
CHILD_TIMEOUT_S = 170


def _child_env() -> dict[str, str]:
    """Children write nothing outside the checkout and hash strings alike."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(
        TMPDIR=str(tmp),
        REPRO_CACHE_DIR=str(OUT / "repro-cache"),
        PYTHONHASHSEED="0",
    )
    return env


def _child(script: str, *args: str) -> dict:
    """Run a benchmark script in a fresh interpreter, from the checkout
    root; its last stdout line is its JSON result."""
    done = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run.py: {script} {' '.join(args)} exited "
                         f"{done.returncode} without a result")
    result = json.loads(lines[-1])
    result["returncode"] = done.returncode
    return result


def run_workload(name: str, seed: int, seconds: float, *, traced: bool,
                 quick: bool, setups: int) -> dict:
    """One workload: ``setups`` set-up-only interpreters, then the measuring one."""
    common = ["--workload", name, "--seed", str(seed)]
    setup_samples = [
        _child("worker.py", *common, "--setup-only",
               "--spawned-at", repr(time.time()))["setup_s"]
        for _ in range(setups)
    ]
    args = [*common, "--seconds", repr(seconds), "--trace", str(int(traced)),
            "--spawned-at", repr(time.time())]
    if quick:
        args.append("--quick")
    result = _child("worker.py", *args)
    if "samples" in result:
        result["samples"]["setup_s"] += setup_samples
    return result


def _spread(samples: list[float]) -> str:
    if len(samples) < 2:
        return ""
    q1, _, q3 = registry.quartiles(samples)
    return f"  [q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)}]"


def print_report(name: str, result: dict, probes: dict | None) -> None:
    e2e = {m.name: m for m in (*registry.END_TO_END, *registry.REPORTED)}
    print(f"== {name}: {registry.WORKLOADS[name]}")
    print(f"   work item: {result['work_item']}; seed {result['seed']}; "
          f"{result['harness']['harness.samples']} timed units")
    for metric_name, samples in result["samples"].items():
        m = e2e[metric_name]
        bound = f"  bound {m.bound:.0%}" if m.bound else ""
        print(f"   {metric_name:<24}{statistics.median(samples):>14.6g} {m.unit:<6}"
              f"{_spread(samples)}{bound}")
    print(f"   {'sim_digest':<24}{result['sim_digest']}")
    noise = result["harness"]["harness.noise_iqr_pct"]
    if noise > registry.NOISE_UNRESOLVED_PCT:
        print(f"   unresolved: unit ratios spread {noise:.1f}% (IQR), above "
              f"{registry.NOISE_UNRESOLVED_PCT:.0f}%")
    layer = dict(result["harness"])
    if result.get("per_layer"):
        layer = {**result["per_layer"], **(probes or {})}
    units = {m.name: m.unit for m in registry.PER_LAYER}
    for metric_name in sorted(layer):
        print(f"     {metric_name:<34}{layer[metric_name]:>16.6g} {units[metric_name]}")
    for failure in result["checks_failed"]:
        print(f"   CHECK FAILED: {failure}")
    print()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(registry.WORKLOADS),
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=registry.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(registry.RUN_SECONDS),
                    help="seconds of timed units per workload")
    ap.add_argument("--traced", action="store_true",
                    help="report form: one extra unit per workload under the "
                         "profiler and counter reader, plus the probes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver form: 0 = end-to-end run, 1 = traced run")
    ap.add_argument("--quick", action="store_true", help="one timed unit per workload")
    ap.add_argument("--json", metavar="OUT", help="also write every number here")
    args = ap.parse_args(argv)

    names = args.workload or list(registry.WORKLOADS)
    driver_form = args.trace is not None
    if driver_form and len(names) != 1:
        ap.error("--trace needs exactly one --workload")
    OUT.mkdir(exist_ok=True)
    for name in names:
        workloads.WORKLOAD_CLASSES[name].build(OUT)

    traced = bool(args.trace) if driver_form else args.traced
    seconds = args.seconds
    if driver_form and traced:
        seconds *= TRACED_UNTRACED_SHARE
    setups = 0 if (args.quick or (driver_form and traced)) else EXTRA_SETUPS

    results: dict[str, dict] = {}
    for name in names:
        results[name] = run_workload(name, args.seed, seconds, traced=traced,
                                     quick=args.quick, setups=setups)
    probes = None
    if traced:
        probe_args = ["--quick"] if args.quick else ["--seconds", repr(PROBE_SECONDS)]
        probes = _child("probes.py", *probe_args)["probes"]

    ok = all(r["returncode"] == 0 and not r.get("checks_failed") and not r["failed"]
             for r in results.values())
    for name, result in results.items():
        if "samples" in result:
            print_report(name, result, probes)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "workloads": results,
             "probes": probes}, indent=1), encoding="utf-8")

    if driver_form:
        result = results[names[0]]
        if "samples" not in result:
            return 1
        if traced:
            values = {**result["per_layer"], **probes}
            listed = registry.PER_LAYER
        else:
            values = {k: statistics.median(v) for k, v in result["samples"].items()}
            listed = registry.END_TO_END
        print(json.dumps({
            "correct": ok,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                        for m in listed},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
