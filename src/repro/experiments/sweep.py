"""Parameter-grid sweeps over one experiment.

``repro-experiments sweep <artifact> --param k=v1,v2 --param j=w`` runs
the cartesian product of every multi-valued axis (single-valued params
are fixed), one task per grid point, through the same job queue and
result cache as ``run`` — so ``--jobs`` shards points across
workers and a re-sweep after changing one axis only recomputes the new
cells.

Grid order is deterministic: axes vary in the order given, last axis
fastest (``itertools.product``).  The merged output is one rendered
section per point plus a single CSV whose columns are the axis values
followed by the numeric summary of each result (scalar number fields of
the result's ``to_json()`` payload, flattened depth-first with dotted
names) — enough to plot any sweep without artifact-specific glue.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.experiments.registry import ExperimentSpec

if TYPE_CHECKING:
    from repro.experiments.runner import Task

__all__ = [
    "grid_tasks",
    "job_sweep_csv",
    "render_points",
    "numeric_summary",
]

#: cap on auto-derived summary columns, so a sweep CSV stays readable
_MAX_SUMMARY_COLUMNS = 48


def grid_tasks(
    spec: ExperimentSpec,
    axes: Mapping[str, Sequence[Any]],
    fixed: Mapping[str, Any] | None = None,
) -> list[Task]:
    """One validated task per grid point of ``axes`` (fixed params merged
    into every point)."""
    from repro.experiments.runner import Task  # the runner imports this module

    if not axes:
        raise ValueError("a sweep needs at least one --param axis")
    names = list(axes)
    tasks = []
    for combo in itertools.product(*(axes[n] for n in names)):
        point = dict(fixed or {})
        point.update(zip(names, combo))
        params = spec.validate(point)
        label = " ".join(f"{n}={_fmt(v)}" for n, v in zip(names, combo))
        tasks.append(Task(spec, params, label=f"{spec.name} {label}"))
    return tasks


def _fmt(value: Any) -> str:
    # lists appear when a point came back through the JSON job envelope
    # (tuples have no JSON form); both render the same CSV cell
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def numeric_summary(payload: Any, prefix: str = "") -> dict[str, float]:
    """Scalar numbers of a ``to_json()`` payload, flattened depth-first
    with dotted names.  Pair lists (the tuple-keyed-map encoding) get
    their key joined into the name; plain lists are indexed."""
    out: dict[str, float] = {}

    def walk(node: Any, name: str) -> None:
        if len(out) >= _MAX_SUMMARY_COLUMNS:
            return
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            out[name] = float(node)
        elif isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{name}.{k}" if name else str(k))
        elif isinstance(node, list):
            if all(
                isinstance(e, list) and len(e) == 2 for e in node
            ) and node:
                for key, value in node:
                    part = (
                        ",".join(str(p) for p in key)
                        if isinstance(key, list)
                        else str(key)
                    )
                    walk(value, f"{name}[{part}]" if name else part)
            else:
                for idx, e in enumerate(node):
                    walk(e, f"{name}[{idx}]" if name else str(idx))

    walk(payload, prefix)
    return out


def job_sweep_csv(axes: Mapping[str, Sequence[Any]], record: Any) -> str:
    """The merged sweep table of a finished
    :class:`~repro.experiments.serde.JobRecord`: axis columns (the point
    values, from the record's per-task params), then the union of every
    point's numeric-summary columns in first-seen order (from its stored
    result payloads) — so a daemon-side sweep exports the identical CSV."""
    names = list(axes)
    payloads = record.results or [None] * len(record.params)
    summaries = [numeric_summary(p) if p is not None else {} for p in payloads]
    columns: list[str] = []
    for row in summaries:
        for key in row:
            if key not in columns:
                columns.append(key)
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(names + columns)
    for params, row in zip(record.params, summaries):
        w.writerow(
            [_fmt(params[n]) for n in names]
            + [("" if key not in row else f"{row[key]:g}") for key in columns]
        )
    return out.getvalue()


def render_points(labels: Sequence[str], results: Sequence[Any]) -> str:
    """Every point's render under its label header, in grid order."""
    return "\n\n".join(
        f"--- {label} ---\n{result.render()}"
        for label, result in zip(labels, results)
    )
