"""EM3D: electromagnetic wave propagation (Culler et al. / Madsen).

A bipartite graph of E-nodes and H-nodes; each step updates every node's
value as a weighted sum of its (other-kind) neighbours' values.  The
remote-edge fraction parameter controls the communication-to-computation
ratio — the x-axis of Figure 5.

Three versions per language (§5):

* **base** — dereference a global pointer per remote value use,
* **ghost** — fetch each *distinct* remote neighbour once into a local
  ghost node, then compute locally,
* **bulk** — aggregate all ghost values coming from one processor into a
  single bulk transfer.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Em3dGraph": "repro.apps.em3d.graph",
    "Em3dParams": "repro.apps.em3d.graph",
    "reference_steps": "repro.apps.em3d.reference",
    "run_splitc_em3d": "repro.apps.em3d.splitc_impl",
    "run_ccpp_em3d": "repro.apps.em3d.ccpp_impl",
    "run_rma_em3d": "repro.apps.em3d.rma_impl",
    "run_recovering_em3d": "repro.apps.em3d.recovery",
    "RecoveryResult": "repro.apps.em3d.recovery",
    "CheckpointStore": "repro.apps.em3d.recovery",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
