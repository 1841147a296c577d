"""The Nexus-based CC++ runtime baseline."""

from __future__ import annotations

from typing import Any

from repro.ccpp.runtime import CCppRuntime
from repro.errors import CalibrationError
from repro.machine.cluster import Cluster
from repro.machine.costs import NEXUS_COSTS, CostModel

__all__ = ["NexusCCppRuntime", "make_nexus_runtime"]


class NexusCCppRuntime(CCppRuntime):
    """CC++ with the Nexus cost profile and no ThAM optimizations.

    Application code written against :class:`~repro.ccpp.runtime.CCContext`
    runs unchanged — the comparison is apples-to-apples, like the paper's
    recompilation of the same sources against the two runtimes.
    """

    def __init__(self, cluster: Cluster, **reliability: Any):
        if cluster.costs.name != NEXUS_COSTS.name:
            raise CalibrationError(
                "NexusCCppRuntime requires a cluster built with NEXUS_COSTS "
                f"(got {cluster.costs.name!r}); use make_nexus_runtime()"
            )
        super().__init__(
            cluster, stub_caching=False, persistent_buffers=False, **reliability
        )


def make_nexus_runtime(
    n_nodes: int,
    *,
    costs: CostModel = NEXUS_COSTS,
    reliable: bool = False,
    retry: Any = None,
    **machine: Any,
) -> NexusCCppRuntime:
    """Build a cluster with the Nexus profile and install the runtime.

    Same call shape as :func:`~repro.ccpp.runtime.make_tham_runtime`:
    ``machine`` is the rest of :class:`Cluster`'s keywords."""
    return NexusCCppRuntime(
        Cluster(n_nodes, costs=costs, **machine), reliable=reliable, retry=retry
    )
