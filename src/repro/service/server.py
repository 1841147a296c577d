"""The experiment daemon: an async job queue over a local socket.

``ExperimentService`` turns the PR-5 orchestration substrate (registry
+ process-pool execution + content-addressed cache) into a long-running
server that many clients share:

* **Jobs** — one submit is one job: a single ``ExperimentSpec`` run, a
  whole sweep grid, or a batch across artifacts.  Each job expands to
  tasks; tasks are the scheduling unit.
* **Scheduling** — queued tasks are picked by ``(priority desc,
  submission order)`` subject to a per-client quota (at most ``quota``
  tasks of one client running at once), so a 10k-point background
  sweep cannot starve an interactive client.
* **Dedup** — before occupying a worker slot a task is resolved
  against the :class:`~repro.experiments.cache.ResultCache` (a hit
  completes instantly) and against the **in-flight table**: a second
  client submitting the same point while the first still computes it
  waits for that computation instead of re-running it.
* **Workers** — a ``spawn`` process pool (created lazily; ``workers=0``
  executes inline, for tests and cache-only traffic) running the exact
  ``runner._execute`` + per-task seeding the CLI uses, so daemon
  results are byte-identical to the serial path.
* **Streaming** — every job keeps a dense, seq-numbered
  :class:`~repro.experiments.serde.JobEvent` log (task started /
  finished / cached, incremental ``row`` payloads, a terminal
  summary); ``stream`` replays from any seq and then follows live.
* **Drain** — ``request_drain()`` (wired to SIGINT by ``serve``)
  rejects new submits, lets queued and running work finish, emits
  every terminal event, then shuts the pool down with ``wait=True`` —
  no orphaned workers, no stream left without its terminal line.
* **Cache GC** — with ``cache_max_bytes`` set, a size-capped LRU pass
  runs after stores (see :meth:`ResultCache.gc`); integrity re-hash on
  read is part of the cache itself.

The daemon measures itself through ``repro.obs.metrics`` (queue depth,
wait time, execution time, worker utilization) — wall-clock ms, since
the service lives outside the simulator's virtual time.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.registry import ExperimentParamError, ExperimentSpec
from repro.experiments.runner import Task, _execute, task_seed
from repro.experiments.serde import JobEvent, JobRecord
from repro.experiments.sweep import numeric_summary
from repro.obs.metrics import MetricNames, Metrics

__all__ = ["ExperimentService", "ServiceConfig", "ServiceError"]


class ServiceError(RuntimeError):
    """A request the daemon cannot honour (bad job id, draining, ...)."""


@dataclass
class ServiceConfig:
    """Tunables for one daemon."""

    workers: int = 2
    #: max tasks of one client running at once (0 = unlimited)
    quota: int = 0
    #: terminal jobs kept for status/list-jobs before being dropped
    keep_jobs: int = 256
    #: size cap for the result cache; None disables GC
    cache_max_bytes: int | None = None
    #: recompute cache hits (a debugging knob, mirrors --refresh)
    refresh: bool = False


@dataclass
class _TaskState:
    """Scheduler-side state of one task of one job."""

    task: Task
    index: int
    state: str = "queued"  # queued | running | dedup-wait | done | dropped
    queued_at: float = 0.0
    started_at: float = 0.0


class _Job:
    """A submitted job: record + tasks + its event log."""

    def __init__(self, record: JobRecord, tasks: list[Task]):
        self.record = record
        self.tasks = [
            _TaskState(task=t, index=i, queued_at=time.monotonic())
            for i, t in enumerate(tasks)
        ]
        self.events: list[JobEvent] = []
        self.results: list[Any | None] = [None] * len(tasks)
        self.payloads: list[Any | None] = [None] * len(tasks)
        self.submit_seq = 0  # assigned by the service

    def emit(self, kind: str, data: dict) -> JobEvent:
        event = JobEvent(
            kind=kind, job_id=self.record.job_id,
            seq=len(self.events), data=data,
        )
        self.events.append(event)
        return event

    def open_tasks(self) -> bool:
        return any(t.state in ("queued", "running", "dedup-wait") for t in self.tasks)


def _payload_of(result: Any) -> Any | None:
    to_json = getattr(result, "to_json", None)
    return to_json() if callable(to_json) else None


class ExperimentService:
    """The daemon.  Construct, :meth:`start`, then either
    :meth:`serve_forever` (blocking; ``serve`` CLI) or drive it from
    tests with :meth:`submit`/:meth:`run_pending`/:meth:`stop`."""

    def __init__(
        self,
        address: str | None = None,
        *,
        config: ServiceConfig | None = None,
        cache: ResultCache | None = None,
        metrics: Metrics | None = None,
    ):
        self.address = address
        self.config = config or ServiceConfig()
        self.cache = cache
        self.metrics = metrics or Metrics()
        self._h_depth = self.metrics.histogram(MetricNames.SVC_QUEUE_DEPTH)
        self._h_wait = self.metrics.histogram(MetricNames.SVC_WAIT)
        self._h_exec = self.metrics.histogram(MetricNames.SVC_EXEC)
        self._h_stream = self.metrics.histogram(MetricNames.SVC_STREAM_LAG)

        self._cond = threading.Condition()
        self._jobs: dict[str, _Job] = {}
        self._job_seq = 0
        #: cache-key -> (job_id, task index) currently computing it
        self._inflight: dict[str, tuple[str, int]] = {}
        #: cache-key -> tasks waiting on that computation
        self._dedup_waiters: dict[str, list[tuple[str, int]]] = {}
        self._running_slots = 0
        self._draining = False
        self._stopped = False
        self._started_at = time.monotonic()
        self._busy_s = 0.0  # accumulated busy-slot seconds (worker_util)
        self._counts = {
            "jobs_submitted": 0, "tasks_submitted": 0, "tasks_executed": 0,
            "cache_hits": 0, "dedup_hits": 0, "cancelled": 0, "failed": 0,
        }

        self._pool: ProcessPoolExecutor | None = None
        self._listener = None
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ExperimentService":
        """Bind the socket (if an address was given) and start the
        scheduler and accept threads."""
        self._started_at = time.monotonic()
        if self.address is not None:
            from repro.service import protocol

            self._listener = protocol.make_listener(self.address)
            self._listener.settimeout(0.2)
            accept = threading.Thread(
                target=self._accept_loop, name="svc-accept", daemon=True
            )
            accept.start()
            self._threads.append(accept)
        scheduler = threading.Thread(
            target=self._scheduler_loop, name="svc-scheduler", daemon=True
        )
        scheduler.start()
        self._threads.append(scheduler)
        return self

    def serve_forever(self) -> None:
        """Block until the daemon stops (drain completed or
        :meth:`stop`)."""
        with self._cond:
            while not self._stopped:
                self._cond.wait(0.5)
        self._join()

    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM -> graceful drain; a second SIGINT stops hard."""
        import signal

        def on_signal(signum, frame):  # pragma: no cover - signal path
            if self._draining:
                self.stop(drain=False)
            else:
                self.request_drain()

        signal.signal(signal.SIGINT, on_signal)
        signal.signal(signal.SIGTERM, on_signal)

    def request_drain(self) -> None:
        """Stop accepting jobs; finish everything queued, then stop."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def stop(self, *, drain: bool = True) -> None:
        """Stop the daemon.  ``drain=True`` finishes queued work first;
        ``drain=False`` cancels queued jobs (their streams still end
        with a terminal event) and only waits for running tasks."""
        with self._cond:
            self._draining = True
            if not drain:
                for job in list(self._jobs.values()):
                    if not job.record.terminal:
                        self._cancel_locked(job, reason="shutdown")
            self._cond.notify_all()
            while not self._stopped:
                self._cond.wait(0.2)
        self._join()

    def _join(self) -> None:
        if self._listener is not None:
            # wake the accept thread with a connection to ourselves: left
            # alone it only notices the stop flag when its accept()
            # timeout fires (shutdown() does not wake a unix listener)
            from repro.service import protocol

            try:
                protocol.connect(self.address, timeout=1.0).close()
            except protocol.ProtocolError:
                pass  # unreachable: the timeout still ends the loop
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            from repro.service.protocol import parse_address

            family, target = parse_address(self.address)
            if family == "unix":
                import os

                try:
                    os.unlink(target)
                except OSError:
                    pass
            self._listener = None

    # ------------------------------------------------------------------
    # the public verbs (used directly in-process and by the socket layer)
    # ------------------------------------------------------------------
    def submit(
        self,
        client: str,
        tasks: list[tuple[str, dict | None, str]],
        *,
        artifact: str = "",
        priority: int = 0,
    ) -> str:
        """Queue one job of ``(spec_name, param overrides, label)``
        tasks.  Params are validated against each spec's schema here,
        at the submission boundary — a bad point fails the submit, not
        the worker.  Returns the job id."""
        if not tasks:
            raise ServiceError("a job needs at least one task")
        validated: list[Task] = []
        for spec_name, overrides, label in tasks:
            try:
                spec = registry.get(spec_name)
            except KeyError as exc:
                raise ServiceError(str(exc)) from None
            if self.address is not None and not spec.cacheable:
                raise ServiceError(
                    f"artifact '{spec_name}' holds live objects and cannot "
                    f"be returned over the wire; run it in-process"
                )
            params = spec.validate(overrides or {})
            validated.append(Task(spec, params, label=label or spec.name))

        with self._cond:
            if self._draining:
                raise ServiceError("daemon is draining; not accepting jobs")
            self._job_seq += 1
            job_id = f"j{self._job_seq:04d}"
            record = JobRecord(
                job_id=job_id,
                client=client or "anonymous",
                artifact=artifact or (
                    validated[0].spec.name if len(validated) == 1 else "batch"
                ),
                priority=priority,
                artifacts=[t.spec.name for t in validated],
                params=[t.params for t in validated],
                labels=[t.label for t in validated],
                submitted_s=time.time(),
                tasks_total=len(validated),
            )
            job = _Job(record, validated)
            job.submit_seq = self._job_seq
            self._jobs[job_id] = job
            job.emit("job.queued", {
                "artifact": record.artifact, "tasks": record.tasks_total,
                "priority": priority, "client": record.client,
            })
            self._counts["jobs_submitted"] += 1
            self._counts["tasks_submitted"] += len(validated)
            self._trim_jobs_locked()
            self._cond.notify_all()
        return job_id

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

    def stream(self, job_id: str, from_seq: int = 0):
        """Yield events from ``from_seq``, blocking for new ones until
        the terminal event has been delivered."""
        next_seq = from_seq
        replayed = False
        while True:
            with self._cond:
                job = self._job(job_id)
                while len(job.events) <= next_seq and not job.record.terminal:
                    self._cond.wait(0.5)
                batch = list(job.events[next_seq:])
            if not replayed:
                self._h_stream.record(float(len(batch)))
                replayed = True
            for event in batch:
                yield event
                next_seq = event.seq + 1
                if event.terminal:
                    return

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
            queued = sum(
                1 for j in self._jobs.values()
                for t in j.tasks if t.state == "queued"
            )
            uptime = max(time.monotonic() - self._started_at, 1e-9)
            util = (
                self._busy_s / (uptime * self.config.workers)
                if self.config.workers else 0.0
            )
            self.metrics.gauge(MetricNames.SVC_WORKER_UTIL, util)
            self.metrics.gauge(MetricNames.SVC_JOBS, float(self._counts["jobs_submitted"]))
            self.metrics.gauge(MetricNames.SVC_CACHE_HITS, float(self._counts["cache_hits"]))
            self.metrics.gauge(MetricNames.SVC_DEDUP_HITS, float(self._counts["dedup_hits"]))
            gauges = dict(sorted(self.metrics.gauges.items()))
            out = {
                "uptime_s": uptime,
                "workers": self.config.workers,
                "quota": self.config.quota,
                "draining": self._draining,
                "queue_depth": queued,
                "running": self._running_slots,
                "worker_util": util,
                "counts": dict(self._counts),
                "gauges": gauges,
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

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job '{job_id}'")
        return job

    def _trim_jobs_locked(self) -> None:
        terminal = [j for j in self._jobs.values() if j.record.terminal]
        excess = len(self._jobs) - self.config.keep_jobs
        for job in terminal[: max(excess, 0)]:
            del self._jobs[job.record.job_id]

    def _cancel_locked(self, job: _Job, *, reason: str) -> None:
        dropped = 0
        for ts in job.tasks:
            if ts.state in ("queued", "dedup-wait"):
                if ts.state == "dedup-wait":
                    key = self._task_key(ts.task)
                    waiters = self._dedup_waiters.get(key, [])
                    self._dedup_waiters[key] = [
                        w for w in waiters if w != (job.record.job_id, ts.index)
                    ]
                ts.state = "dropped"
                dropped += 1
        job.record.state = "cancelled"
        job.record.finished_s = time.time()
        job.record.error = f"cancelled: {reason}"
        self._counts["cancelled"] += 1
        job.emit("job.cancelled", {
            "reason": reason, "dropped_tasks": dropped,
            "done_tasks": job.record.tasks_done,
        })

    def _task_key(self, task: Task) -> str:
        if self.cache is not None:
            return self.cache.key(task.spec, task.params)
        from repro.experiments.serde import canonical_json

        return canonical_json({"spec": task.spec.name, "params": task.params})

    def _scheduler_loop(self) -> None:
        while True:
            action = None
            with self._cond:
                if self._should_stop_locked():
                    break
                action = self._pick_locked()
                if action is None:
                    self._cond.wait(0.2)
                    continue
            self._dispatch(*action)
        self._shutdown_pool()
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    def _should_stop_locked(self) -> bool:
        if not self._draining:
            return False
        return not any(j.open_tasks() for j in self._jobs.values())

    def _pick_locked(self) -> tuple[_Job, _TaskState] | None:
        """The next dispatchable task: highest priority first, then
        submission order, skipping clients at quota — or None when
        nothing can move (no queued task, or no slot for one that
        needs a worker)."""
        per_client: dict[str, int] = {}
        queued: list[tuple[int, int, int, _Job, _TaskState]] = []
        depth = 0
        for job in self._jobs.values():
            for ts in job.tasks:
                if ts.state == "running":
                    per_client[job.record.client] = (
                        per_client.get(job.record.client, 0) + 1
                    )
                elif ts.state == "queued":
                    depth += 1
                    queued.append(
                        (-job.record.priority, job.submit_seq, ts.index, job, ts)
                    )
        if not queued:
            return None
        self._h_depth.record(float(depth))
        queued.sort(key=lambda q: q[:3])
        quota = self.config.quota
        slots_full = (
            self.config.workers > 0
            and self._running_slots >= self.config.workers
        )
        for _, _, _, job, ts in queued:
            if quota and per_client.get(job.record.client, 0) >= quota:
                continue
            key = self._task_key(ts.task)
            if key in self._inflight:
                # fold into the in-flight twin: resolves without a slot
                self._join_inflight_locked(job, ts, key)
                return self._pick_locked()
            if slots_full and not self._cache_could_hit(ts.task):
                continue  # needs a worker; maybe a later task is a cache hit
            ts.state = "running"
            ts.started_at = time.monotonic()
            self._inflight[key] = (job.record.job_id, ts.index)
            return job, ts
        return None

    def _cache_could_hit(self, task: Task) -> bool:
        """Cheap pre-check (file existence) letting cache hits bypass a
        full worker pool; the authoritative load happens in _dispatch."""
        if self.cache is None or self.config.refresh:
            return False
        return self.cache.path(task.spec, task.params).exists()

    def _join_inflight_locked(self, job: _Job, ts: _TaskState, key: str) -> None:
        ts.state = "dedup-wait"
        self._dedup_waiters.setdefault(key, []).append(
            (job.record.job_id, ts.index)
        )
        if job.record.state == "queued":
            job.record.state = "running"

    def _dispatch(self, job: _Job, ts: _TaskState) -> None:
        """Outside the lock: resolve via cache or execute."""
        task = ts.task
        if self.cache is not None and not self.config.refresh:
            hit = self.cache.load(task.spec, task.params)
            if hit is not None:
                with self._cond:
                    self._inflight.pop(self._task_key(task), None)
                    self._complete_locked(job, ts, hit, source="cache")
                    self._cond.notify_all()
                return
        with self._cond:
            if (
                self.config.workers > 0
                and self._running_slots >= self.config.workers
            ):
                # claimed as a likely cache hit, but the envelope is
                # gone/corrupt and every slot is busy: back to the queue
                self._inflight.pop(self._task_key(task), None)
                ts.state = "queued"
                return
            if job.record.state == "queued":
                job.record.state = "running"
            job.emit("task.started", {"index": ts.index, "label": task.label})
            if self.config.workers > 0:
                self._running_slots += 1
        seed = task_seed(task.spec, task.params)
        if self.config.workers == 0:
            try:
                result = _execute(task.spec.module, task.spec.entry, task.params, seed)
            except Exception as exc:
                self._task_failed(job, ts, exc)
                return
            self._task_succeeded(job, ts, result)
            return
        pool = self._ensure_pool()
        future = pool.submit(
            _execute, task.spec.module, task.spec.entry, task.params, seed
        )
        future.add_done_callback(
            lambda fut, j=job, t=ts: self._on_future(j, t, fut)
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers, mp_context=get_context("spawn")
            )
        return self._pool

    def _on_future(self, job: _Job, ts: _TaskState, future: Future) -> None:
        with self._cond:
            self._running_slots -= 1
            self._busy_s += time.monotonic() - ts.started_at
        try:
            result = future.result()
        except Exception as exc:
            self._task_failed(job, ts, exc)
            return
        self._task_succeeded(job, ts, result)

    def _task_succeeded(self, job: _Job, ts: _TaskState, result: Any) -> None:
        task = ts.task
        if self.cache is not None:
            self.cache.store(task.spec, task.params, result)
            if self.config.cache_max_bytes is not None:
                self.cache.gc(self.config.cache_max_bytes)
        self._counts["tasks_executed"] += 1
        self._h_exec.record((time.monotonic() - ts.started_at) * 1e3)
        with self._cond:
            self._inflight.pop(self._task_key(task), None)
            self._complete_locked(job, ts, result, source="run")
            self._cond.notify_all()

    def _task_failed(self, job: _Job, ts: _TaskState, exc: Exception) -> None:
        message = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        with self._cond:
            key = self._task_key(ts.task)
            self._inflight.pop(key, None)
            ts.state = "done"
            if not job.record.terminal:
                job.record.state = "failed"
                job.record.finished_s = time.time()
                job.record.error = message
                self._counts["failed"] += 1
                for other in job.tasks:
                    if other.state in ("queued", "dedup-wait"):
                        other.state = "dropped"
                job.emit("job.failed", {
                    "error": message, "index": ts.index, "label": ts.task.label,
                })
            # dedup waiters of a failed computation fail their jobs too
            for waiter_id, idx in self._dedup_waiters.pop(key, []):
                wjob = self._jobs.get(waiter_id)
                if wjob is None or wjob.record.terminal:
                    continue
                wjob.tasks[idx].state = "done"
                wjob.record.state = "failed"
                wjob.record.finished_s = time.time()
                wjob.record.error = message
                self._counts["failed"] += 1
                for other in wjob.tasks:
                    if other.state in ("queued", "dedup-wait"):
                        other.state = "dropped"
                wjob.emit("job.failed", {
                    "error": message, "index": idx,
                    "label": wjob.tasks[idx].task.label,
                })
            self._cond.notify_all()

    def _complete_locked(
        self, job: _Job, ts: _TaskState, result: Any, *, source: str
    ) -> None:
        """Record one finished task (and fan out to dedup waiters)."""
        key = self._task_key(ts.task)
        self._finish_task_locked(job, ts, result, source)
        for waiter_id, idx in self._dedup_waiters.pop(key, []):
            wjob = self._jobs.get(waiter_id)
            if wjob is None or wjob.record.terminal:
                continue
            self._finish_task_locked(wjob, wjob.tasks[idx], result, "dedup")

    def _finish_task_locked(
        self, job: _Job, ts: _TaskState, result: Any, source: str
    ) -> None:
        if ts.state == "done":
            return
        ts.state = "done"  # even for a cancelled job: drain must see it settle
        if job.record.terminal:
            return
        waited_ms = (time.monotonic() - ts.queued_at) * 1e3
        self._h_wait.record(waited_ms)
        if source == "cache":
            job.record.cache_hits += 1
            self._counts["cache_hits"] += 1
            job.emit("task.cached", {"index": ts.index, "label": ts.task.label})
        elif source == "dedup":
            job.record.dedup_hits += 1
            self._counts["dedup_hits"] += 1
        job.record.tasks_done += 1
        if job.record.state == "queued":
            job.record.state = "running"
        job.results[ts.index] = result
        payload = _payload_of(result)
        job.payloads[ts.index] = payload
        job.emit("task.finished", {
            "index": ts.index, "label": ts.task.label, "source": source,
        })
        job.emit("row", {
            "index": ts.index, "label": ts.task.label,
            "artifact": ts.task.spec.name,
            "params": ts.task.params if isinstance(ts.task.params, dict) else {},
            "summary": numeric_summary(payload) if payload is not None else {},
            "result": payload,
        })
        if not job.open_tasks():
            job.record.state = "done"
            job.record.finished_s = time.time()
            job.record.results = list(job.payloads)
            job.emit("job.done", {
                "tasks": job.record.tasks_total,
                "cache_hits": job.record.cache_hits,
                "dedup_hits": job.record.dedup_hits,
                "elapsed_s": job.record.finished_s - job.record.submitted_s,
            })

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # synchronous driving (tests, workers=0)
    # ------------------------------------------------------------------
    def run_pending(self) -> int:
        """Drive the scheduler synchronously until nothing can move.
        Only valid before :meth:`start` (no scheduler thread).  Returns
        the number of tasks resolved."""
        resolved = 0
        while True:
            with self._cond:
                action = self._pick_locked()
            if action is None:
                return resolved
            self._dispatch(*action)
            resolved += 1

    # ------------------------------------------------------------------
    # the socket layer
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        import socket as _socket

        while True:
            with self._cond:
                if self._stopped:
                    return
            try:
                conn, _ = self._listener.accept()
            except (TimeoutError, _socket.timeout):
                continue
            except OSError:
                return
            with self._cond:
                stopped = self._stopped
            if stopped:  # _join()'s wake-up call
                conn.close()
                return
            handler = threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            )
            handler.start()

    def _handle(self, conn) -> None:
        from repro.service import protocol

        try:
            with conn.makefile("rb") as fh:
                req = protocol.recv_line(fh)
                if req is None:
                    return
                op = req.get("op")
                try:
                    if op == "stream":
                        try:
                            self._handle_stream(conn, req)
                        except (ServiceError, OSError):
                            pass  # stream already started; just close
                        return
                    response = self._handle_op(op, req)
                except (ServiceError, ExperimentParamError,
                        protocol.ProtocolError) as exc:
                    response = {"ok": False, "error": str(exc)}
                protocol.send_line(conn, response)
        except (OSError, ValueError):
            pass  # peer went away mid-exchange; nothing to clean up
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_op(self, op: str, req: dict) -> dict:
        if op == "ping":
            return {"ok": True, "pid": __import__("os").getpid()}
        if op == "submit":
            job_id = self.submit(
                req.get("client", "anonymous"),
                [
                    (t["artifact"], t.get("params"), t.get("label", ""))
                    for t in req.get("tasks", [])
                ],
                artifact=req.get("artifact", ""),
                priority=int(req.get("priority", 0)),
            )
            return {"ok": True, "job_id": job_id}
        if op == "status":
            return {"ok": True, "job": self.status(req["job_id"]).to_json()}
        if op == "poll":
            events = self.events(req["job_id"], int(req.get("from_seq", 0)))
            return {
                "ok": True,
                "job": self.status(req["job_id"]).to_json(),
                "events": [e.to_json() for e in events],
            }
        if op == "result":
            record = self.wait(req["job_id"], req.get("timeout"))
            return {"ok": True, "job": record.to_json()}
        if op == "cancel":
            return {"ok": True, "job": self.cancel(req["job_id"]).to_json()}
        if op == "list-jobs":
            jobs = []
            for record in self.list_jobs():
                payload = record.to_json()
                payload["results"] = None  # keep listings light
                jobs.append(payload)
            return {"ok": True, "jobs": jobs}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "shutdown":
            drain = bool(req.get("drain", True))
            threading.Thread(
                target=self.stop, kwargs={"drain": drain}, daemon=True
            ).start()
            return {"ok": True, "draining": drain}
        raise ServiceError(f"unknown op {op!r}")

    def _handle_stream(self, conn, req: dict) -> None:
        from repro.service import protocol

        job_id = req["job_id"]
        from_seq = int(req.get("from_seq", 0))
        try:
            self._job(job_id)
        except ServiceError as exc:
            protocol.send_line(conn, {"ok": False, "error": str(exc)})
            return
        protocol.send_line(conn, {"ok": True, "job_id": job_id})
        for event in self.stream(job_id, from_seq):
            protocol.send_line(conn, {"event": event.to_json()})
