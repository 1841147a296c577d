"""The job queue: the one scheduler every experiment run goes through.

:class:`JobQueue` takes jobs of validated :class:`Task` (spec + params)
and owns everything between a submit and its terminal event.  It has no
socket and no thread of its own — somebody drives it: the in-process
client (``ExperimentClient.in_process``) calls :meth:`JobQueue.drive` in
its own thread until the job it submitted is terminal; the daemon
(:class:`repro.service.server.ExperimentService`) is this class plus a
scheduler thread, a socket and a drain protocol.

What the queue decides, once, for both (docs/architecture.md,
"Experiment orchestration", has the long form):

* **Pick** — the smallest ``(-priority, submit order, -cost_hint,
  index)`` among queued tasks, skipping clients at their running-task
  quota; inside a job longest-first, so the longest simulations
  (``figure6``, ``figure5``) start first instead of last.
* **Resolve** — a :class:`~repro.experiments.cache.ResultCache` hit
  completes without a worker (unless ``refresh``); a task identical to
  one in flight waits for that computation (``source="dedup"``); a task
  whose spec names ``inputs`` that are all tasks of its own job (the
  scorecard under ``run all``) waits for them and is computed from their
  results by the spec's ``from_inputs`` entry, in the driving thread.
* **Execute** — in the driving thread, or on a lazily built ``spawn``
  pool (not ``fork``: every worker starts from a clean interpreter, no
  inherited stub caches, buffer pools or RNG state).  Only ``(module,
  entry, params)`` names and plain data cross the process boundary;
  each task seeds ``random`` (and ``numpy.random``, once its module has
  loaded NumPy) from a hash of (spec name, params), so incidental RNG use
  does not depend on scheduling order.
* **Crash policy** — a worker that dies breaks its pool: the pool is
  retired, every task that was in flight on it is requeued once
  (``source="retry"``) and the next task that needs a pool gets a fresh
  one; a second crash fails the job.  An ordinary exception raised by an
  experiment fails the job at once.
* **Record** — one writer of each job's :class:`JobRecord` and dense,
  seq-numbered :class:`JobEvent` log; results are kept in input order
  whatever the completion order, which is why a parallel run renders
  byte-identically to a serial one.
"""

from __future__ import annotations

import hashlib
import heapq
import importlib
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from typing import Any

from repro.experiments.cache import ResultCache
from repro.experiments.registry import ExperimentSpec
from repro.experiments.serde import JobEvent, JobRecord, canonical_json
from repro.experiments.sweep import numeric_summary
from repro.obs.metrics import MetricNames, Metrics

__all__ = ["JobError", "JobQueue", "Task", "task_seed"]


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


def _identity(spec: ExperimentSpec, params: dict[str, Any]) -> str:
    """What makes two tasks the same computation."""
    return canonical_json({"spec": spec.name, "params": params})


def _seed_of(identity: str) -> int:
    return int.from_bytes(hashlib.sha256(identity.encode()).digest()[:4], "big")


def task_seed(spec: ExperimentSpec, params: dict[str, Any]) -> int:
    """Deterministic per-task RNG seed from (spec name, params)."""
    return _seed_of(_identity(spec, params))


def _execute(module: str, entry: str, params: dict[str, Any], seed: int) -> Any:
    """Worker body (also the inline path): resolve, seed, run.

    The entry is resolved first, so a module that imports NumPy has
    loaded it by the time the RNGs are seeded; a task that never loads
    NumPy (``congestion``, ``table1``) does not pay for it here.
    """
    import random
    import sys

    fn = getattr(importlib.import_module(module), entry)
    random.seed(seed)
    np = sys.modules.get("numpy")
    if np is not None:
        np.random.seed(seed % 2**32)
    return fn(**params)


def _from_inputs(spec: ExperimentSpec, results: list[Any]) -> Any:
    """The inline body of a task computed from its job's own results."""
    return getattr(importlib.import_module(spec.module), spec.from_inputs)(*results)


def _link_inputs(tasks: list[_TaskState]) -> None:
    """Point each task whose spec is computed ``from_inputs`` at the tasks
    of the same job that are its inputs — when every one is there."""
    by_key = {ts.key: ts for ts in tasks}
    for ts in tasks:
        spec = ts.task.spec
        if spec.from_inputs:
            deps = [by_key.get(_identity(s, p)) for s, p in spec.input_tasks(ts.task.params)]
            if None not in deps:
                ts.inputs = tuple(deps)


class JobError(RuntimeError):
    """A request the queue cannot honour (bad job id, empty job, ...)."""


#: task states that still owe their job a result
_OPEN = ("queued", "running", "dedup-wait")


@dataclass(eq=False)
class _TaskState:
    """Scheduler-side state of one task of one job."""

    task: Task
    index: int
    #: the task's identity: keys the in-flight table, seeds its RNGs
    key: str
    state: str = "queued"  # queued | running | dedup-wait | done | dropped
    attempts: int = 1
    #: the cache was asked and had no usable entry: do not ask again
    cache_missed: bool = False
    queued_at: float = 0.0
    started_at: float = 0.0
    #: the tasks of the same job this one is computed from
    #: (``spec.from_inputs``); empty when the job lacks one of them
    inputs: tuple["_TaskState", ...] = ()

    def inputs_done(self) -> bool:
        return all(dep.state == "done" for dep in self.inputs)


class _Job:
    """A submitted job: record + tasks + its event log."""

    def __init__(self, record: JobRecord, seq: int, tasks: list[_TaskState]):
        self.record = record
        self.seq = seq  # submit order
        self.tasks = tasks
        self.open = len(tasks)  # tasks in an _OPEN state
        self.events: list[JobEvent] = []
        self.results: list[Any | None] = [None] * len(tasks)
        self.payloads: list[Any | None] = [None] * len(tasks)
        self.failure: BaseException | None = None


class JobQueue:
    """Jobs in, terminal events out.  Not a thread: call :meth:`drive`
    (until one job is done), :meth:`run_pending` (until nothing can
    move) or subclass it with a scheduler thread."""

    def __init__(
        self,
        *,
        workers: int = 0,
        quota: int = 0,
        keep_jobs: int = 256,
        cache: ResultCache | None = None,
        refresh: bool = False,
        job_ids: str = "j{:04d}",
        on_event: Callable[[JobEvent], None] | None = None,
        metrics: Metrics | None = None,
    ):
        #: pool size; 0 executes every task in the driving thread
        self.workers = workers
        #: max tasks of one client running at once (0 = unlimited)
        self.quota = quota
        #: terminal jobs kept for status/list-jobs before being dropped
        self.keep_jobs = keep_jobs
        self.cache = cache
        #: recompute cache hits (and overwrite them)
        self.refresh = refresh
        self.metrics = metrics or Metrics()
        self._job_ids = job_ids
        self._on_event = on_event
        self._h_depth = self.metrics.histogram(MetricNames.SVC_QUEUE_DEPTH)
        self._h_wait = self.metrics.histogram(MetricNames.SVC_WAIT)
        self._h_exec = self.metrics.histogram(MetricNames.SVC_EXEC)
        self._h_stream = self.metrics.histogram(MetricNames.SVC_STREAM_LAG)

        self._cond = threading.Condition()
        self._jobs: dict[str, _Job] = {}
        self._job_seq = 0
        #: queued tasks as (-priority, job seq, -cost_hint, index, job, task
        #: state); an entry whose task is no longer queued is skipped
        self._ready: list[tuple] = []
        self._depth = 0  # tasks in state "queued"
        self._open = 0  # tasks in an _OPEN state, over all jobs
        self._running: dict[str, int] = {}  # client -> tasks in state "running"
        #: keys being computed by a running task
        self._inflight: set[str] = set()
        #: key -> tasks waiting on that computation
        self._dedup_waiters: dict[str, list[tuple[_Job, _TaskState]]] = {}
        self._slots = 0  # tasks on the pool
        self._started_at = time.monotonic()
        self._busy_s = 0.0  # accumulated busy-slot seconds (worker_util)
        self._counts = {
            "jobs_submitted": 0, "tasks_submitted": 0, "tasks_executed": 0,
            "cache_hits": 0, "dedup_hits": 0, "cancelled": 0, "failed": 0,
        }
        self._pool = None
        self._retired: list = []  # broken pools, shut down off their own thread

    # ------------------------------------------------------------------
    # the verbs
    # ------------------------------------------------------------------
    def enqueue(
        self, tasks: Sequence[Task], *, client: str, artifact: str, priority: int = 0
    ) -> str:
        """Queue one job of validated tasks; returns its id."""
        if not tasks:
            raise JobError("a job needs at least one task")
        now = time.monotonic()
        with self._cond:
            self._job_seq += 1
            record = JobRecord(
                job_id=self._job_ids.format(self._job_seq),
                client=client,
                artifact=artifact,
                priority=priority,
                artifacts=[t.spec.name for t in tasks],
                params=[t.params for t in tasks],
                labels=[t.label for t in tasks],
                submitted_s=time.time(),
                tasks_total=len(tasks),
            )
            job = _Job(record, self._job_seq, [
                _TaskState(t, i, _identity(t.spec, t.params), queued_at=now)
                for i, t in enumerate(tasks)
            ])
            _link_inputs(job.tasks)
            self._jobs[record.job_id] = job
            self._emit(job, "job.queued", {
                "artifact": artifact, "tasks": len(tasks),
                "priority": priority, "client": client,
            })
            for ts in job.tasks:
                heapq.heappush(self._ready, self._entry(job, ts))
            self._depth += len(tasks)
            self._open += len(tasks)
            self._counts["jobs_submitted"] += 1
            self._counts["tasks_submitted"] += len(tasks)
            self._trim_jobs_locked()
            self._cond.notify_all()
        return record.job_id

    def status(self, job_id: str) -> JobRecord:
        with self._cond:
            return self._job(job_id).record

    def events(self, job_id: str, from_seq: int = 0) -> list[JobEvent]:
        """Non-blocking poll: events with ``seq >= from_seq``."""
        with self._cond:
            return list(self._job(job_id).events[from_seq:])

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Block until the job is terminal (or timeout); returns the
        record."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            job = self._job(job_id)
            while not job.record.terminal:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining if remaining is not None else 0.5)
            return job.record

    def event_batches(self, job_id: str, from_seq: int = 0) -> Iterator[list[JobEvent]]:
        """Yield the events from ``from_seq`` in the batches they become
        visible in, blocking for new ones; the last batch ends with the
        terminal event (also when ``from_seq`` lies past it)."""
        next_seq = from_seq
        while True:
            with self._cond:
                job = self._job(job_id)
                while len(job.events) <= next_seq and not job.record.terminal:
                    self._cond.wait(0.5)
                batch = job.events[next_seq:] or job.events[-1:]
            if next_seq == from_seq:
                self._h_stream.record(float(len(batch)))
            yield batch
            if batch[-1].terminal:
                return
            next_seq = batch[-1].seq + 1

    def stream(self, job_id: str, from_seq: int = 0) -> Iterator[JobEvent]:
        """Yield events from ``from_seq``, blocking for new ones until
        the terminal event has been delivered."""
        return chain.from_iterable(self.event_batches(job_id, from_seq))

    def results(self, job_id: str) -> list[Any]:
        """The job's live result objects, in task order (waits for the
        job; raises if it failed or was cancelled)."""
        record = self.wait(job_id)
        with self._cond:
            job = self._job(job_id)
        if record.state != "done":
            raise RuntimeError(
                f"job {job_id} {record.state}: {record.error or 'no results'}"
            ) from job.failure
        return list(job.results)

    def cancel(self, job_id: str) -> JobRecord:
        with self._cond:
            job = self._job(job_id)
            if not job.record.terminal:
                self._cancel_locked(job, reason="client request")
                self._cond.notify_all()
            return job.record

    def list_jobs(self) -> list[JobRecord]:
        with self._cond:
            return [j.record for j in self._jobs.values()]

    def stats(self) -> dict[str, Any]:
        """Queue/worker/cache gauges and histogram snapshots."""
        with self._cond:
            uptime = max(time.monotonic() - self._started_at, 1e-9)
            util = self._busy_s / (uptime * self.workers) if self.workers else 0.0
            self.metrics.gauge(MetricNames.SVC_WORKER_UTIL, util)
            self.metrics.gauge(MetricNames.SVC_JOBS, float(self._counts["jobs_submitted"]))
            self.metrics.gauge(MetricNames.SVC_CACHE_HITS, float(self._counts["cache_hits"]))
            self.metrics.gauge(MetricNames.SVC_DEDUP_HITS, float(self._counts["dedup_hits"]))
            out = {
                "uptime_s": uptime,
                "workers": self.workers,
                "quota": self.quota,
                "queue_depth": self._depth,
                "running": self._slots,
                "worker_util": util,
                "counts": dict(self._counts),
                "gauges": dict(sorted(self.metrics.gauges.items())),
                "histograms": {
                    name: hist.snapshot()
                    for name, hist in self.metrics.histograms().items()
                    if hist.count
                },
            }
            if self.cache is not None:
                out["cache"] = {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                    "stores": self.cache.stores,
                    "integrity_failures": self.cache.integrity_failures,
                }
            return out

    def close(self) -> None:
        """Shut the worker pool down, waiting for its processes."""
        self._retire(self._pool)
        self._reap_retired()

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def drive(self, job_id: str) -> None:
        """Run the queue in the calling thread until ``job_id`` is
        terminal.  With a pool configured, cache hits are resolved first
        and the pool is only built if more than one task is left to
        execute; it lives for this one job."""
        with self._cond:
            job = self._job(job_id)
        inline = self.workers == 0
        if not inline:
            self.run_pending(cached_only=True)
            inline = job.open <= 1
        try:
            self._run_until(lambda: job.record.terminal, inline=inline)
        finally:
            self.close()

    def run_pending(self, **how) -> int:
        """Dispatch until nothing can move (no queued task, or no slot
        for one that needs a worker).  Returns the number of tasks
        dispatched."""
        dispatched = 0
        while True:
            with self._cond:
                action = self._pick_locked(**how)
            if action is None:
                return dispatched
            self._dispatch(*action, **how)
            dispatched += 1

    def _run_until(self, done: Callable[[], bool], **how) -> None:
        """Dispatch, sleeping on the condition while nothing can move,
        until ``done()`` (evaluated under the lock)."""
        while True:
            with self._cond:
                if done():
                    return
                action = self._pick_locked(**how)
                if action is None:
                    self._cond.wait(0.2)
                    continue
            self._dispatch(*action, **how)

    # ------------------------------------------------------------------
    # pick
    # ------------------------------------------------------------------
    def _entry(self, job: _Job, ts: _TaskState) -> tuple:
        # (job seq, index) is unique, so the comparison never reaches the objects
        return (
            -job.record.priority, job.seq, -ts.task.spec.cost_hint, ts.index, job, ts
        )

    def _hit_only_locked(self, cached_only: bool, inline: bool) -> bool:
        """May only a task whose result is already cached be claimed now?"""
        return cached_only or (not inline and 0 < self.workers <= self._slots)

    def _pick_locked(
        self, *, cached_only: bool = False, inline: bool = False
    ) -> tuple[_Job, _TaskState] | None:
        """Claim the next dispatchable task — or None when nothing can
        move.  Tasks identical to one in flight are folded into it on
        the way; tasks that cannot be claimed now (client at quota, or a
        worker is needed and none is free) are set aside and restored."""
        if not self._depth:
            self._ready.clear()  # only entries of dropped tasks are left
            return None
        self._h_depth.record(float(self._depth))
        hit_only = self._hit_only_locked(cached_only, inline)
        aside = []
        picked = None
        while self._ready:
            entry = heapq.heappop(self._ready)
            job, ts = entry[-2:]
            if ts.state != "queued":
                continue  # cancelled or failed while it waited
            if self.quota and self._running.get(job.record.client, 0) >= self.quota:
                aside.append(entry)
            elif ts.key in self._inflight:
                self._move(job, ts, "dedup-wait")
                self._dedup_waiters.setdefault(ts.key, []).append((job, ts))
            elif (
                not ts.inputs_done() if ts.inputs else hit_only
            ) and not self._cache_could_hit(ts):
                # its inputs are not done (it needs no worker once they
                # are), or only hits may be claimed: maybe a later task is
                aside.append(entry)
            else:
                self._move(job, ts, "running")
                ts.started_at = time.monotonic()
                self._inflight.add(ts.key)
                picked = job, ts
                break
        for entry in aside:
            heapq.heappush(self._ready, entry)
        return picked

    def _cache_could_hit(self, ts: _TaskState) -> bool:
        """Cheap pre-check (file existence) letting cache hits bypass a
        full worker pool; the authoritative load happens in _dispatch."""
        if self.cache is None or self.refresh or ts.cache_missed:
            return False
        return self.cache.path(ts.task.spec, ts.task.params).exists()

    def _move(self, job: _Job, ts: _TaskState, state: str) -> None:
        """The one place a task changes state: keeps the counters true,
        and a job is running once one of its tasks has left the queue."""
        client = job.record.client
        if job.record.state == "queued":
            job.record.state = "running"
        if ts.state == "queued":
            self._depth -= 1
        elif ts.state == "running":
            self._running[client] -= 1
        if state == "queued":
            self._depth += 1
        elif state == "running":
            self._running[client] = self._running.get(client, 0) + 1
        delta = (state in _OPEN) - (ts.state in _OPEN)
        job.open += delta
        self._open += delta
        ts.state = state

    # ------------------------------------------------------------------
    # resolve and execute
    # ------------------------------------------------------------------
    def _dispatch(
        self, job: _Job, ts: _TaskState, *, cached_only: bool = False,
        inline: bool = False,
    ) -> None:
        """Outside the lock: resolve a claimed task via the cache, or
        execute it."""
        task = ts.task
        inline = inline or self.workers == 0
        if self.cache is not None and not (self.refresh or ts.cache_missed):
            hit = self.cache.load_entry(task.spec, task.params)
            if hit is not None:
                with self._cond:
                    self._complete_locked(job, ts, *hit, "cache")
                return
            ts.cache_missed = True
        with self._cond:
            if (
                not ts.inputs_done() if ts.inputs
                else self._hit_only_locked(cached_only, inline)
            ):
                # claimed as a likely cache hit, but the envelope is
                # gone or corrupt: back to the queue
                self._requeue_locked(job, ts)
                return
            self._emit(job, "task.started", {
                "index": ts.index, "label": task.label, "attempt": ts.attempts,
            })
            if not (inline or ts.inputs):
                self._slots += 1
        args = (task.spec.module, task.spec.entry, task.params, _seed_of(ts.key))
        if inline or ts.inputs:
            try:
                result = (
                    _from_inputs(task.spec, [job.results[d.index] for d in ts.inputs])
                    if ts.inputs else _execute(*args)
                )
            except Exception as exc:
                self._task_failed(job, ts, exc)
            else:
                self._task_succeeded(job, ts, result)
            return
        from concurrent.futures import BrokenExecutor

        while True:
            pool = self._ensure_pool()
            try:
                future = pool.submit(_execute, *args)
            except BrokenExecutor:
                # a worker died and the pool's own thread has not told us yet
                self._retire(pool)
                continue
            future.add_done_callback(partial(self._on_future, job, ts, pool))
            return

    def _ensure_pool(self):
        self._reap_retired()
        with self._cond:
            if self._pool is None:
                # imported here: a serial or fully cached run never pays
                # for concurrent.futures.process / multiprocessing
                from concurrent.futures import ProcessPoolExecutor
                from multiprocessing import get_context

                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=get_context("spawn")
                )
            return self._pool

    def _retire(self, pool) -> None:
        with self._cond:
            if pool is not None and self._pool is pool:
                self._pool = None
                self._retired.append(pool)

    def _reap_retired(self) -> None:
        # never from a pool's own callback thread: shutdown joins it
        while self._retired:
            self._retired.pop().shutdown(wait=True)

    def _on_future(self, job: _Job, ts: _TaskState, pool, future) -> None:
        from concurrent.futures import BrokenExecutor

        with self._cond:
            self._slots -= 1
            self._busy_s += time.monotonic() - ts.started_at
        try:
            result = future.result()
        except BrokenExecutor as exc:
            self._retire(pool)
            if ts.attempts > 1:
                self._task_failed(job, ts, exc)
                return
            with self._cond:
                ts.attempts += 1
                self._requeue_locked(job, ts)
        except Exception as exc:
            self._task_failed(job, ts, exc)
        else:
            self._task_succeeded(job, ts, result)

    def _requeue_locked(self, job: _Job, ts: _TaskState) -> None:
        self._inflight.remove(ts.key)
        self._move(job, ts, "queued")
        heapq.heappush(self._ready, self._entry(job, ts))
        self._cond.notify_all()

    def _store(self, task: Task, payload: Any) -> None:
        self.cache._store_payload(task.spec, task.params, payload)

    def _task_succeeded(self, job: _Job, ts: _TaskState, result: Any) -> None:
        payload = result.to_json()  # once: the cache and the job share it
        if self.cache is not None:
            self._store(ts.task, payload)
        self._h_exec.record((time.monotonic() - ts.started_at) * 1e3)
        with self._cond:
            self._counts["tasks_executed"] += 1
            self._complete_locked(
                job, ts, result, payload, "run" if ts.attempts == 1 else "retry"
            )

    def _task_failed(self, job: _Job, ts: _TaskState, exc: BaseException) -> None:
        import traceback  # not worth loading on the path where nothing fails

        message = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        with self._cond:
            self._inflight.remove(ts.key)
            self._move(job, ts, "done")
            self._fail_job_locked(job, ts, message, exc)
            # dedup waiters of a failed computation fail their jobs too
            for wjob, wts in self._pop_waiters_locked(ts.key):
                self._move(wjob, wts, "done")
                self._fail_job_locked(wjob, wts, message, exc)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # record
    # ------------------------------------------------------------------
    def _emit(self, job: _Job, kind: str, data: dict) -> None:
        event = JobEvent(
            kind=kind, job_id=job.record.job_id, seq=len(job.events), data=data
        )
        job.events.append(event)
        if self._on_event is not None:
            self._on_event(event)

    def _complete_locked(
        self, job: _Job, ts: _TaskState, result: Any, payload: Any, source: str
    ) -> None:
        """Record one resolved task and fan out to its dedup waiters.
        ``payload`` is ``result.to_json()``: a cache hit's is the one the
        cache read, so no result is encoded twice."""
        self._inflight.remove(ts.key)
        self._finish_task_locked(job, ts, result, payload, source)
        for wjob, wts in self._pop_waiters_locked(ts.key):
            self._finish_task_locked(wjob, wts, result, payload, "dedup")
        self._cond.notify_all()

    def _pop_waiters_locked(self, key: str) -> Iterator[tuple[_Job, _TaskState]]:
        """The tasks still waiting on ``key`` (a waiter dropped since it
        joined — its job was cancelled or failed — stays listed)."""
        for wjob, wts in self._dedup_waiters.pop(key, ()):
            if wts.state == "dedup-wait":
                yield wjob, wts

    def _finish_task_locked(
        self, job: _Job, ts: _TaskState, result: Any, payload: Any, source: str
    ) -> None:
        self._move(job, ts, "done")  # even for a cancelled job: drain must see it settle
        if job.record.terminal:
            return
        record, task = job.record, ts.task
        self._h_wait.record((time.monotonic() - ts.queued_at) * 1e3)
        if source == "cache":
            record.cache_hits += 1
            self._counts["cache_hits"] += 1
            self._emit(job, "task.cached", {"index": ts.index, "label": task.label})
        elif source == "dedup":
            record.dedup_hits += 1
            self._counts["dedup_hits"] += 1
        record.tasks_done += 1
        job.results[ts.index] = result
        job.payloads[ts.index] = payload
        self._emit(job, "task.finished", {
            "index": ts.index, "label": task.label, "source": source,
        })
        self._emit(job, "row", {
            "index": ts.index, "label": task.label,
            "artifact": task.spec.name,
            "params": task.params,
            "summary": numeric_summary(payload),
            "result": payload,
        })
        if not job.open:
            record.state = "done"
            record.finished_s = time.time()
            record.results = list(job.payloads)
            self._emit(job, "job.done", {
                "tasks": record.tasks_total,
                "cache_hits": record.cache_hits,
                "dedup_hits": record.dedup_hits,
                "elapsed_s": record.finished_s - record.submitted_s,
            })

    def _drop_waiting_locked(self, job: _Job) -> int:
        """A terminal job's queued and dedup-waiting tasks will never
        run; its running ones finish and are ignored."""
        dropped = 0
        for ts in job.tasks:
            if ts.state in ("queued", "dedup-wait"):
                self._move(job, ts, "dropped")
                dropped += 1
        return dropped

    def _fail_job_locked(
        self, job: _Job, ts: _TaskState, message: str, exc: BaseException
    ) -> None:
        if job.record.terminal:
            return
        job.record.state = "failed"
        job.record.finished_s = time.time()
        job.record.error = message
        job.failure = exc
        self._counts["failed"] += 1
        self._drop_waiting_locked(job)
        self._emit(job, "job.failed", {
            "error": message, "index": ts.index, "label": ts.task.label,
        })

    def _cancel_locked(self, job: _Job, *, reason: str) -> None:
        job.record.state = "cancelled"
        job.record.finished_s = time.time()
        job.record.error = f"cancelled: {reason}"
        self._counts["cancelled"] += 1
        self._emit(job, "job.cancelled", {
            "reason": reason, "dropped_tasks": self._drop_waiting_locked(job),
            "done_tasks": job.record.tasks_done,
        })

    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobError(f"unknown job '{job_id}'")
        return job

    def _trim_jobs_locked(self) -> None:
        """Forget the oldest terminal jobs beyond ``keep_jobs`` (the job
        table is in submit order, so this rarely looks past its head)."""
        excess = max(len(self._jobs) - self.keep_jobs, 0)
        oldest = (j.record.job_id for j in self._jobs.values() if j.record.terminal)
        for job_id in list(islice(oldest, excess)):
            del self._jobs[job_id]
