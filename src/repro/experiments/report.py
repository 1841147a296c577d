"""From a finished result to its files — the one place that names them.

Every result type answers for its own outputs: ``render()``, ``csv()``
where it has one, ``extra_files()`` where it has more (``trace.json``).
:func:`outputs` maps one ``(spec, result)`` to ``{file name: text}``;
:func:`write_job` writes that map for every task of a finished job plus
``manifest.json`` — the job's versioned
:class:`~repro.experiments.serde.JobRecord` (per-task params, cache-hit
counts, every result payload), enough to rebuild any artifact without
re-running it.  ``repro-experiments run ... --out DIR`` calls it on the
job it ran; :func:`write_all` is the same two steps as a library call.

The artifact files depend only on the results — never on scheduling, on
whether a result came from the cache or a daemon, or on what the process
ran before — so a ``jobs=4`` report, a warm rerun and a cold one are
byte-identical.  (``manifest.json`` is the exception by design: it
records timestamps, cache-hit counts and the client's pid.)
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.serde import JobRecord
from repro.util.files import write_text_atomic

__all__ = ["outputs", "write_job", "write_all"]


def _line_ended(text: str) -> str:
    return text if text.endswith("\n") else text + "\n"


def outputs(spec: registry.ExperimentSpec, result: Any) -> dict[str, str]:
    """Every file ``result`` produces, name -> text, in writing order."""
    files = {f"{spec.file_stem}.txt": _line_ended(result.render())}
    if hasattr(result, "csv"):
        files[f"{spec.file_stem}.csv"] = _line_ended(result.csv())
    if hasattr(result, "extra_files"):
        files.update(result.extra_files())
    return files


def write_job(
    out_dir: str | Path, record: JobRecord, results: Sequence[Any]
) -> list[Path]:
    """Write the outputs of every result of the finished job ``record``,
    then its manifest, under ``out_dir``; returns the written paths."""
    files: dict[str, str] = {}
    for name, result in zip(record.artifacts, results):
        files.update(outputs(registry.get(name), result))
    files["manifest.json"] = (
        json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n"
    )
    out = Path(out_dir)
    return [write_text_atomic(out / name, (text,)) for name, text in files.items()]


def write_all(
    out_dir: str | Path,
    *,
    quick: bool = True,
    iters: int = 50,
    artifacts: Sequence[str] = registry.ARTIFACT_NAMES,
    jobs: int = 1,
    cache: ResultCache | None = None,
    refresh: bool = False,
) -> list[Path]:
    """Regenerate ``artifacts`` (registry names) into ``out_dir`` through
    the in-process job queue; returns the written paths."""
    from repro.service.client import ExperimentClient

    specs = [registry.get(name) for name in artifacts]
    with ExperimentClient.in_process(jobs=jobs, cache=cache, refresh=refresh) as client:
        job_id = client.submit(
            tasks=[
                (spec.name, spec.standard_overrides(quick=quick, iters=iters))
                for spec in specs
            ]
        )
        results = client.result(job_id)
        return write_job(out_dir, client.status(job_id), results)
