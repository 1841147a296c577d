"""Experiment harness: regenerates every table and figure of the paper.

==========  ============================================  =====================
artifact    content                                       module
==========  ============================================  =====================
Table 1     runtime source-code size comparison           :mod:`.table1`
Table 4     communication micro-benchmarks                :mod:`.table4`
Figure 5    EM3D per-edge breakdown (3 versions × 4       :mod:`.figure5`
            remote-edge fractions × 2 languages)
Figure 6    Water + LU breakdowns                         :mod:`.figure6`
§6 text     CC++/ThAM vs CC++/Nexus (5–35×)               :mod:`.nexus_compare`
§6 text     ablations: stub cache, persistent buffers,    :mod:`.ablations`
            lock costs, polling
==========  ============================================  =====================

Every module exposes ``run(...)`` returning a structured result with a
``render()`` text table; its ``to_json()/from_json()`` round trip is not
written per class but derived from the dataclass fields by one codec
(:class:`.serde.Codec`), and :mod:`.paper` holds the published numbers
for side-by-side comparison.

The artifacts are orchestrated through :mod:`.registry` (one
:class:`~repro.experiments.registry.ExperimentSpec` per artifact with a
validated parameter schema), scheduled by the job queue in
:mod:`.runner` (results in input order: parallel output is byte-identical
to serial) and memoized by the content-addressed result cache in
:mod:`.cache`.  ``python -m repro.experiments.cli run <artifact>`` runs
one from the command line; ``sweep`` runs parameter grids.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "paper": "repro.experiments.paper",
    "MicroRow": "repro.experiments.results",
    "ExperimentSpec": "repro.experiments.registry",
    "ExperimentParamError": "repro.experiments.registry",
    "ParamSpec": "repro.experiments.registry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
