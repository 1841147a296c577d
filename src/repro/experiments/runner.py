"""Process-pool experiment runner with a deterministic merge.

``run_tasks`` executes a list of :class:`Task` (spec + validated params)
and returns outcomes **in input order**, whatever the completion order —
so a parallel run renders byte-identically to a serial one.  The moving
parts:

* **Sharding** — each task is shipped to a ``spawn`` worker as
  ``(module, entry, params)``; only names and plain data cross the
  process boundary, results come back pickled.  ``spawn`` (not ``fork``)
  so every worker starts from a clean interpreter: no inherited stub
  caches, buffer pools or RNG state — a worker computes exactly what a
  fresh serial process would.
* **Scheduling** — pending tasks are submitted longest-first (by
  ``spec.cost_hint``) so the critical path (the scorecard) starts
  immediately instead of last.
* **Seeding** — each worker seeds ``random`` and ``numpy`` from a hash
  of (spec name, params) before running, so any incidental RNG use is
  deterministic per task, not per scheduling order.
* **Retry** — a worker crash (the pool breaks) retries each unfinished
  task **once, inline in the parent**; a second failure propagates.
  Ordinary exceptions raised by the experiment propagate immediately.
* **Caching** — with a :class:`~repro.experiments.cache.ResultCache`,
  hits skip execution entirely (unless ``refresh``) and fresh results
  are stored on the way out.

Progress lines are streamed to ``progress`` (stderr by default), never
stdout — stdout belongs to the rendered artifacts and must not vary
with scheduling.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.experiments.cache import ResultCache
from repro.experiments.registry import ExperimentSpec
from repro.experiments.serde import canonical_json

__all__ = ["Task", "TaskOutcome", "run_tasks", "task_seed"]


@dataclass(frozen=True)
class Task:
    """One unit of work: an experiment spec plus validated parameters."""

    spec: ExperimentSpec
    params: dict[str, Any] = field(default_factory=dict)
    #: display label; defaults to the spec name
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", self.spec.name)


@dataclass
class TaskOutcome:
    """How one task finished."""

    task: Task
    result: Any
    source: str  # "run" | "cache" | "retry"
    elapsed_s: float
    attempts: int = 1


def task_seed(spec: ExperimentSpec, params: dict[str, Any]) -> int:
    """Deterministic per-task RNG seed from (spec name, params)."""
    text = canonical_json({"spec": spec.name, "params": params})
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _execute(module: str, entry: str, params: dict[str, Any], seed: int) -> Any:
    """Worker body (also the inline path): seed, resolve, run."""
    import random

    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed % 2**32)
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        pass
    fn = getattr(importlib.import_module(module), entry)
    return fn(**params)


def _default_progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_tasks(
    tasks: Sequence[Task],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    refresh: bool = False,
    progress: Callable[[str], None] | None = None,
) -> list[TaskOutcome]:
    """Run every task; outcomes come back in input order."""
    say = progress if progress is not None else _default_progress
    outcomes: dict[int, TaskOutcome] = {}

    # -- cache hits resolve in the parent, before any worker spawns ------
    pending: list[int] = []
    for i, task in enumerate(tasks):
        if cache is not None and not refresh:
            t0 = time.perf_counter()
            hit = cache.load(task.spec, task.params)
            if hit is not None:
                outcomes[i] = TaskOutcome(
                    task, hit, "cache", time.perf_counter() - t0
                )
                say(f"[{task.label}] cache hit ({cache.path(task.spec, task.params)})")
                continue
        pending.append(i)

    def finish(i: int, result: Any, source: str, elapsed: float, attempts: int) -> None:
        task = tasks[i]
        outcomes[i] = TaskOutcome(task, result, source, elapsed, attempts)
        if cache is not None:
            cache.store(task.spec, task.params, result)
        say(f"[{task.label}] done in {elapsed:.1f}s ({source})")

    def run_inline(i: int, source: str, attempts: int) -> None:
        task = tasks[i]
        t0 = time.perf_counter()
        result = _execute(
            task.spec.module, task.spec.entry, task.params,
            task_seed(task.spec, task.params),
        )
        finish(i, result, source, time.perf_counter() - t0, attempts)

    if jobs <= 1 or len(pending) <= 1:
        for i in pending:
            say(f"[{tasks[i].label}] running")
            run_inline(i, "run", 1)
        return [outcomes[i] for i in range(len(tasks))]

    # -- parallel: longest-first submission, crash-retry inline ----------
    # (the pool machinery is imported here: a serial or fully cached run
    # never pays for concurrent.futures.process / multiprocessing)
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    order = sorted(pending, key=lambda i: -tasks[i].spec.cost_hint)
    crashed: list[int] = []
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(pending)), mp_context=get_context("spawn")
    ) as pool:
        futures = {}
        started = time.perf_counter()
        for i in order:
            task = tasks[i]
            futures[pool.submit(
                _execute, task.spec.module, task.spec.entry, task.params,
                task_seed(task.spec, task.params),
            )] = i
            say(f"[{task.label}] queued")
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for fut in done:
                i = futures[fut]
                try:
                    result = fut.result()
                except BrokenProcessPool:
                    crashed.append(i)
                    continue
                finish(i, result, "run", time.perf_counter() - started, 1)

    for i in sorted(crashed):
        say(f"[{tasks[i].label}] worker crashed; retrying inline")
        run_inline(i, "retry", 2)

    return [outcomes[i] for i in range(len(tasks))]
