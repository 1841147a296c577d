"""CSV / JSON export of the experiment results (for external plotting).

Every result type renders to a text table for humans and implements the
shared ``to_json()/from_json()`` contract (see
:mod:`repro.experiments.serde`) for machines.  The CSV helpers here are
*views over that one serialized form*: each accepts either a live result
or its ``to_json()`` payload (e.g. read back from the result cache), so
the figures can be re-plotted without re-running the simulations and
without a second, parallel serializer drifting out of sync.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any

from repro.experiments import registry

if TYPE_CHECKING:
    from repro.experiments.figure5 import Figure5Result
    from repro.experiments.figure6 import Figure6Result
    from repro.experiments.table4 import Table4Result

__all__ = ["table4_csv", "figure5_csv", "figure6_csv", "result_json"]

_COMPONENTS = ("cpu", "net", "thread mgmt", "thread sync", "runtime")


def result_json(result: Any) -> str:
    """The canonical machine-readable form: the ``to_json()`` payload as
    indented JSON text."""
    return json.dumps(result.to_json(), indent=2) + "\n"


def _coerce(result: Any, artifact: str) -> Any:
    """Accept a live result or its ``to_json()`` payload."""
    if isinstance(result, dict):
        return registry.get(artifact).result_from_json(result)
    return result


def table4_csv(result: Table4Result | dict) -> str:
    """Table 4 as CSV: one row per benchmark per language."""
    result = _coerce(result, "table4")
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(
        ["benchmark", "language", "total_us", "am_us", "threads_us",
         "runtime_us", "yields", "creates", "syncs"]
    )
    for name, row in result.cc.items():
        w.writerow(
            ["%s" % name, "ccpp", f"{row.total_us:.3f}", f"{row.am_us:.3f}",
             f"{row.threads_us:.3f}", f"{row.runtime_us:.3f}",
             f"{row.yields:.3f}", f"{row.creates:.3f}", f"{row.syncs:.3f}"]
        )
    for name, row in result.sc.items():
        w.writerow(
            [name, "splitc", f"{row.total_us:.3f}", f"{row.am_us:.3f}",
             f"{row.threads_us:.3f}", f"{row.runtime_us:.3f}",
             f"{row.yields:.3f}", f"{row.creates:.3f}", f"{row.syncs:.3f}"]
        )
    if result.am_rtt_us is not None:
        w.writerow(["am_base_rtt", "-", f"{result.am_rtt_us:.3f}"] + [""] * 6)
    if result.mpl_rtt_us is not None:
        w.writerow(["mpl_rtt", "-", f"{result.mpl_rtt_us:.3f}"] + [""] * 6)
    return out.getvalue()


def _breakdown_rows(writer, label_parts, row):
    frac = row.component_fractions()
    writer.writerow(
        list(label_parts)
        + [row.language, f"{row.elapsed_us:.3f}", f"{row.normalized:.4f}"]
        + [f"{frac[c]:.4f}" for c in _COMPONENTS]
    )


def figure5_csv(result: Figure5Result | dict) -> str:
    """Figure 5 as CSV: one row per (version, pct, language) bar."""
    result = _coerce(result, "figure5")
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(
        ["version", "pct_remote", "language", "elapsed_us", "normalized"]
        + [c.replace(" ", "_") for c in _COMPONENTS]
    )
    for (version, pct, _lang), row in sorted(result.rows.items()):
        _breakdown_rows(w, [version, pct], row)
    return out.getvalue()


def figure6_csv(result: Figure6Result | dict) -> str:
    """Figure 6 as CSV: one row per (app-label, language) bar."""
    result = _coerce(result, "figure6")
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(
        ["app", "language", "elapsed_us", "normalized"]
        + [c.replace(" ", "_") for c in _COMPONENTS]
    )
    for (label, _lang), row in sorted(result.rows.items()):
        _breakdown_rows(w, [label], row)
    return out.getvalue()
