"""The paper's published numbers, transcribed for comparison.

Sources: Table 4 (micro-benchmarks), Figure 5 (EM3D), Figure 6 (Water,
LU), and §6's CC++/Nexus comparison paragraphs.  All times in µs unless
noted.  ``None`` marks cells the paper leaves empty (N/A).

This module is the one home of every paper value the reproduction is
graded against: each result type's ``claims()`` (the scorecard's rows)
and ``render()`` read their reference columns from here, and the
reference strings the scorecard prints ("55 us", "~12 us", "87-89%")
are formatted from these constants, not typed beside them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Table4Row",
    "TABLE4",
    "AM_BASE_RTT_US",
    "MPL_RTT_US",
    "FIGURE5_ABS_100PCT_S",
    "FIGURE5_RATIO",
    "FIGURE6_ABS_S",
    "FIGURE5_GHOST_CUT_PCT",
    "FIGURE6_RATIO_BAND",
    "LOCK_CONTENTIONLESS_PCT",
    "NEXUS_SPEEDUPS",
    "THREAD_COSTS_US",
    "nexus_band",
]

#: raw AM round-trip the null RMI is compared against ("only 12 µs slower
#: than the base round-trip time of the AM layer")
AM_BASE_RTT_US = 55.0

#: IBM MPL round trip under AIX 3.2.5 (Table 4 caption)
MPL_RTT_US = 88.0

#: thread-operation costs back-derived from Table 4 (see DESIGN.md §5)
THREAD_COSTS_US = {"create": 5.0, "context_switch": 6.0, "sync_op": 0.4}


@dataclass(frozen=True, slots=True)
class Table4Row:
    """One micro-benchmark row of Table 4."""

    cc_total: float
    cc_am: float
    cc_threads: float
    cc_yield: float
    cc_create: float
    cc_sync: float
    cc_runtime: float
    sc_total: float | None = None
    sc_am: float | None = None
    sc_runtime: float | None = None


#: Table 4 verbatim.  Prefetch numbers are per element (20 elements).
TABLE4: dict[str, Table4Row] = {
    "0-Word Simple": Table4Row(67, 55, 4, 0, 0, 10, 8),
    "0-Word": Table4Row(77, 55, 12, 1, 0, 15, 10),
    "1-Word": Table4Row(94, 70, 12, 1, 0, 15, 12),
    "2-Word": Table4Row(95, 70, 12, 1, 0, 15, 13),
    "0-Word Threaded": Table4Row(87, 55, 21, 2, 1, 10, 11),
    "0-Word Atomic": Table4Row(88, 55, 21, 2, 1, 14, 12, 56, 53, 3),
    "GP 2-Word R/W": Table4Row(92, 55, 21, 2, 1, 10, 16, 57, 53, 4),
    "BulkWrite 40-Word": Table4Row(154, 70, 21, 2, 1, 10, 63, 74, 70, 4),
    "BulkRead 40-Word": Table4Row(177, 70, 21, 2, 1, 10, 86, 75, 70, 5),
    "Prefetch 20-Word": Table4Row(35.4, 5.3, 21, 2, 1, 10, 9.1, 12.1, 6.2, 5.9),
}

#: Figure 5: absolute execution times (seconds) printed above the bars for
#: 100 % remote edges, per EM3D version and language.
FIGURE5_ABS_100PCT_S = {
    "base": {"splitc": 68.0, "ccpp": 136.0},
    "ghost": {"splitc": 7.6, "ccpp": 18.3},
    "bulk": {"splitc": 0.26, "ccpp": 0.29},
}

#: Figure 5: the CC++/Split-C ratio each version converges to as the
#: remote-edge fraction grows (§6 text).
FIGURE5_RATIO = {"base": 2.0, "ghost": 2.5, "bulk": 1.1}

#: Figure 5 / §6: how much of the base version's per-edge time the
#: ghost-node version removes in Split-C, in percent.
FIGURE5_GHOST_CUT_PCT = (87.0, 89.0)

#: Figure 6: the CC++/Split-C ratio band the Water and LU bars fall in.
FIGURE6_RATIO_BAND = (1.0, 6.0)

#: Figure 6: absolute execution times (seconds) printed above the bars.
FIGURE6_ABS_S = {
    ("water-atomic", 64): {"splitc": 0.10, "ccpp": 0.26},
    ("water-atomic", 512): {"splitc": 1.79, "ccpp": 10.0},
    ("water-prefetch", 64): {"splitc": 0.04, "ccpp": 0.10},
    ("water-prefetch", 512): {"splitc": 1.40, "ccpp": 4.89},
    ("lu", 512): {"splitc": 0.81, "ccpp": 2.91},
}

#: §6 "Comparison with CC++/Nexus": ThAM-over-Nexus speedups.
NEXUS_SPEEDUPS = {
    "compute-bound (water-512, lu)": (5.0, 6.0),
    "water-64": (16.0, 22.0),
    "em3d-bulk": (10.0, 10.0),
    "em3d-ghost": (29.0, 29.0),
    "em3d-base": (35.0, 35.0),
}


#: §6 Discussion: "95 % of lock acquisitions are contention-less".
LOCK_CONTENTIONLESS_PCT = 95.0


def nexus_band(row: str) -> str:
    """One :data:`NEXUS_SPEEDUPS` row as the paper words it: ``35x``, ``5-6x``."""
    lo, hi = NEXUS_SPEEDUPS[row]
    return f"{lo:g}x" if lo == hi else f"{lo:g}-{hi:g}x"
