"""Compare two sets of benchmark results, metric by metric.

    python perfbench/compare.py A.json B.json [--same-code]

``A.json`` and ``B.json`` are files written by ``run.py --json``; A is the
parent (or the first set), B the change (or the second set).  For every
end-to-end metric × workload it prints both medians and quartiles, the
bound, and one verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread of either side (quartile distance over the
  median; the range when there are fewer than four samples) is wider than
  the bound, so the medians cannot be told apart — unless every sample of
  B reads better than every sample of A;
* ``better``     — B's median is better by more than A's own spread (by
  more than the bound when A is a single sample);
* ``unchanged``  — otherwise.

Per-layer metrics have no bound: both values and the relative change are
printed, and exact counts are marked ``identical`` or ``DIFFERS``.

Exits 1 if anything regressed.  ``--same-code`` is the two-set agreement
check for one commit: it fails when either set's median is worse than the
other's by more than the bound, when an exact count differs (call counts
of the threaded workloads excepted: idle wake-ups move them) or when a
``sim_digest`` differs.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import registry

__all__ = ["verdict", "compare", "main"]


def _spread(samples: list[float]) -> float:
    """Quartile distance as a share of the median; with fewer than four
    samples the quartiles are extrapolated, so the range stands in."""
    q1, med, q3 = registry.quartiles(samples)
    width = q3 - q1 if len(samples) >= 4 else max(samples) - min(samples)
    return abs(width / med) if med else abs(width)


def verdict(metric: registry.Metric, a: list[float], b: list[float]) -> str:
    """One of better / unchanged / regressed / unresolved (see module doc)."""
    am, bm = registry.quartiles(a)[1], registry.quartiles(b)[1]
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * ((bm - am) / abs(am) if am else bm - am)
    bound = metric.bound or 0.0
    if bound == 0.0:  # exact metrics: any move counts
        return "regressed" if worse_by > 0 else "better" if worse_by < 0 else "unchanged"
    spread_a, spread_b = _spread(a), _spread(b)
    if sign > 0:
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    else:
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    wide = max(spread_a, spread_b) > bound
    if worse_by > bound:
        return "regressed" if (not wide or all_worse) else "unresolved"
    if wide and not all_better:
        return "unresolved"
    if -worse_by > (spread_a if len(a) > 1 else bound):
        return "better"
    return "unchanged"


def compare(a: dict, b: dict, *, same_code: bool = False) -> int:
    """Print the comparison; return the number of failures."""
    e2e = {m.name: m for m in (*registry.END_TO_END, *registry.REPORTED)}
    layer_units = {m.name: m.unit for m in registry.PER_LAYER}
    failures = 0
    for name in registry.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb or "samples" not in wa or "samples" not in wb:
            continue
        print(f"== {name}")
        for metric_name, sa in wa["samples"].items():
            sb = wb["samples"].get(metric_name)
            if sb is None:
                continue
            m = e2e[metric_name]
            a1, am, a3 = registry.quartiles(sa)
            b1, bm, b3 = registry.quartiles(sb)
            v = verdict(m, sa, sb)
            failures += v == "regressed" or (same_code and verdict(m, sb, sa) == "regressed")
            print(
                f"   {metric_name:<22}{m.unit:<6}"
                f" A {am:>12.6g} [{a1:.6g}, {a3:.6g}] n={len(sa):<3}"
                f" B {bm:>12.6g} [{b1:.6g}, {b3:.6g}] n={len(sb):<3}"
                f" bound {m.bound or 0:>4.0%}  {v}"
            )
        same = wa["sim_digest"] == wb["sim_digest"]
        print(f"   sim_digest            {'identical' if same else 'DIFFERS'}")
        failures += same_code and not same
        la = {**(wa.get("per_layer") or {}), **(a.get("probes") or {})}
        lb = {**(wb.get("per_layer") or {}), **(b.get("probes") or {})}
        for metric_name in sorted(set(la) & set(lb)):
            va, vb = la[metric_name], lb[metric_name]
            change = f"{(vb - va) / abs(va):+8.1%}" if va else "        "
            note = ""
            if layer_units[metric_name] == "count" and metric_name != "harness.samples":
                note = "identical" if va == vb else "DIFFERS"
                timing_dependent = (metric_name.endswith(".calls")
                                    and name in registry.THREADED_WORKLOADS)
                failures += same_code and va != vb and not timing_dependent
            print(f"     {metric_name:<34} A {va:>14.6g}  B {vb:>14.6g} {change}  {note}")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--same-code", action="store_true",
                    help="two sets of one commit: also fail on unresolved, on "
                         "differing exact counts and on a differing sim_digest")
    args = ap.parse_args(argv)
    a = json.loads(args.a.read_text(encoding="utf-8"))
    b = json.loads(args.b.read_text(encoding="utf-8"))
    failures = compare(a, b, same_code=args.same_code)
    print(f"\n{failures} failure(s)" if failures else "\nno regression")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
