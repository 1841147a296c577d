"""One-call report generation: every artifact to a directory.

``write_all(out_dir)`` regenerates each table/figure through the
experiment registry and the in-process job queue — so it takes the same
``jobs``/``cache`` controls as the CLI — and writes the human-readable
render (``.txt``) plus, where defined, the machine-readable CSV
(``.csv``) and the Perfetto trace JSON.  Used by
``repro-experiments ... --out DIR`` and handy for archiving a full
reproduction run.  The artifact files depend only on the results — never
on scheduling, on whether a result came from the cache, or on what the
process ran before — so a ``jobs=4`` report, a warm rerun and a cold one
are byte-identical.  (``manifest.json`` is the exception by design: it
records timestamps, cache-hit counts and the client's pid.)

The run goes through the in-process
:class:`~repro.service.client.ExperimentClient`, so alongside the
rendered artifacts the report directory gets ``manifest.json`` — the
job's versioned :class:`~repro.experiments.serde.JobRecord` (per-task
params, cache-hit counts, and every result payload), enough to rebuild
any artifact without re-running it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from repro.experiments import registry
from repro.experiments.cache import ResultCache

__all__ = ["write_all", "ARTIFACTS", "standard_overrides"]

#: report names in canonical order (the historical file stems)
ARTIFACTS = (
    "table1",
    "table4",
    "figure5",
    "figure6",
    "nexus_compare",
    "ablations",
    "faults",
    "scaling",
    "scorecard",
    "metrics",
    "congestion",
    "rma",
    "trace",
)

#: report/CLI aliases -> registry names
_ALIASES = {"nexus_compare": "nexus"}


def standard_overrides(
    spec: registry.ExperimentSpec,
    *,
    quick: bool | None = None,
    iters: int | None = None,
    seed: int | None = None,
) -> dict[str, Any]:
    """The standard parameters, filtered to what ``spec`` declares."""
    overrides: dict[str, Any] = {}
    for name, value in (("quick", quick), ("iters", iters), ("seed", seed)):
        if value is not None and spec.has_param(name):
            overrides[name] = value
    return overrides


def _write_text(out: Path, name: str, text: str, written: list[Path]) -> None:
    path = out / name
    path.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
    written.append(path)


def _csv_writers() -> dict[str, Callable[[Any], str]]:
    from repro.experiments import export

    return {
        "table4": export.table4_csv,
        "figure5": export.figure5_csv,
        "figure6": export.figure6_csv,
        "metrics": lambda result: result.csv(),
        "congestion": lambda result: result.csv(),
        "rma": lambda result: result.csv(),
    }


def write_all(
    out_dir: str | Path,
    *,
    quick: bool = True,
    iters: int = 50,
    artifacts: tuple[str, ...] = ARTIFACTS,
    jobs: int = 1,
    cache: ResultCache | None = None,
    refresh: bool = False,
) -> list[Path]:
    """Regenerate ``artifacts`` into ``out_dir``; returns written paths."""
    from repro.service.client import ExperimentClient

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    specs = [registry.get(_ALIASES.get(name, name)) for name in artifacts]
    client = ExperimentClient.in_process(jobs=jobs, cache=cache, refresh=refresh)
    job_id = client.submit(
        tasks=[
            (spec.name, standard_overrides(spec, quick=quick, iters=iters))
            for spec in specs
        ]
    )
    results = client.result(job_id)
    record = client.status(job_id)

    csv_writers = _csv_writers()
    written: list[Path] = []
    for spec, result in zip(specs, results):
        if spec.name == "trace":
            _write_text(out, "trace_summary.txt", spec.render(result), written)
            written.append(result.write(out / "trace.json"))
            continue
        _write_text(out, f"{spec.file_stem}.txt", spec.render(result), written)
        if spec.name in csv_writers:
            _write_text(
                out, f"{spec.file_stem}.csv", csv_writers[spec.name](result), written
            )
    manifest = out / "manifest.json"
    manifest.write_text(
        json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    written.append(manifest)
    return written
