"""Blocked dense LU decomposition (SPLASH suite).

A dense n×n matrix is split into b×b blocks scattered over a 2-D
processor grid.  Each step k: (1) the owner factors pivot block (k,k);
(2) processors with blocks in row/column k obtain the pivot and compute
the L/U panels; (3) interior blocks fetch the panel blocks they need and
update.  Every remote block must be re-fetched each step, since it was
modified in preceding sub-steps (§5).

``sc-lu`` distributes the pivot with one-way bulk stores and prefetches
panel blocks with split-phase bulk gets; ``cc-lu`` replaces both with
RMIs returning blocks by value.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "LuParams": "repro.apps.lu.blocked",
    "LuWorkload": "repro.apps.lu.blocked",
    "lu_nopivot": "repro.apps.lu.blocked",
    "reference_lu": "repro.apps.lu.reference",
    "check_factorization": "repro.apps.lu.reference",
    "run_splitc_lu": "repro.apps.lu.splitc_impl",
    "run_ccpp_lu": "repro.apps.lu.ccpp_impl",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
