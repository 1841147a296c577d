"""Water: N-body molecular dynamics (SPLASH suite).

The computation iterates steps of O(N²) inter-molecular force evaluation
plus O(N) intra-molecular work and integration.  Molecules are statically
block-distributed; intra-molecular work is local, inter-molecular pairs
need reads of remote molecule data and accumulating writes of remote
forces.

Two versions per language (§5):

* **atomic** — per remote pair, an atomic read of the partner molecule's
  coordinates and a one-way accumulating write of its force contribution,
* **prefetch** — the remote molecules' coordinates are bundled and
  fetched per source processor before the compute loop (the 10-fold
  reduction in remote accesses the paper reports).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "WaterParams": "repro.apps.water.system",
    "WaterSystem": "repro.apps.water.system",
    "reference_water": "repro.apps.water.reference",
    "run_splitc_water": "repro.apps.water.splitc_impl",
    "run_ccpp_water": "repro.apps.water.ccpp_impl",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
