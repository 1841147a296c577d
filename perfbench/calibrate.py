"""Pinned pure-Python reference kernel for host-time calibration.

Every timed unit of the benchmark is bracketed by :func:`kernel_seconds`.
A host-time metric is ``median_i(unit_i / calib_i) * CALIB_NOMINAL_S``: the
unit's cost in multiples of this kernel, scaled back to seconds by a pinned
constant.  Frequency drift, steal time and a slower or faster machine move
the unit and the kernel together, so the ratio holds where raw seconds do not.

The kernel does the operations the simulator's hot paths are made of —
generator sends, heap push/pop, method calls, dict stores — and nothing
else.  It must stay exactly as it is: changing it rescales every metric.
It imports nothing from ``repro`` (``--self-test`` checks both).

    python perfbench/calibrate.py --self-test
"""

from __future__ import annotations

import heapq
import sys
import time

__all__ = ["CALIB_NOMINAL_S", "KERNEL_OPS", "run_kernel", "kernel_seconds"]

#: seconds one kernel run took on the box the benchmark was defined on;
#: only a scale factor, so calibrated metrics read as seconds there
CALIB_NOMINAL_S = 0.013

_ROUNDS = 27_000
#: operations one kernel run performs (4 kinds per round + the final drain)
KERNEL_OPS = 4 * _ROUNDS + 64
_CHECKSUM = 378_292_627


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total


def _echo():
    got = 0
    while True:
        got = yield got + 1


def run_kernel() -> tuple[int, int]:
    """One kernel run: ``(operations performed, checksum)``, both fixed."""
    gen = _echo()
    next(gen)
    send = gen.send
    heap: list[tuple[int, int]] = [(i * 7919 % 64, i) for i in range(64)]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    cell = _Cell()
    add = cell.add
    table: dict[int, int] = {}
    ops = 0
    for i in range(_ROUNDS):
        v = send(i)                      # generator send
        key, _ = pop(heap)               # heap pop + push
        push(heap, (key + (v & 63) + 1, i))
        add(v)                           # bound-method call
        table[i & 1023] = key            # dict store
        ops += 4
    while heap:
        pop(heap)
        ops += 1
    gen.close()
    return ops, cell.total + sum(table.values())


def kernel_seconds() -> float:
    """Wall-clock seconds of one kernel run."""
    t0 = time.perf_counter()
    run_kernel()
    return time.perf_counter() - t0


def self_test() -> None:
    """The operation count and checksum are fixed and ``repro`` is absent."""
    for _ in range(3):
        ops, checksum = run_kernel()
        if ops != KERNEL_OPS:
            raise AssertionError(f"kernel did {ops} ops, pinned {KERNEL_OPS}")
        if checksum != _CHECKSUM:
            raise AssertionError(f"kernel checksum {checksum}, pinned {_CHECKSUM}")
    loaded = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]
    if loaded:
        raise AssertionError(f"calibration kernel pulled in {loaded}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        raise SystemExit(__doc__)
    self_test()
    times = sorted(kernel_seconds() for _ in range(15))
    print(
        f"calibrate: {KERNEL_OPS} ops, checksum ok, repro not imported; "
        f"median {times[7] * 1e3:.2f} ms (nominal {CALIB_NOMINAL_S * 1e3:.1f} ms)"
    )
