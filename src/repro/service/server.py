"""The experiment daemon: the job queue behind a local socket.

``ExperimentService`` is :class:`~repro.experiments.runner.JobQueue` —
the same pick order, cache resolve, in-flight dedup, worker pool, crash
policy and event log the in-process client drives — plus what only a
long-running server needs:

* **A scheduler thread** that drives the queue, and an accept thread
  serving the JSONL protocol (:mod:`repro.service.protocol`): one
  request per connection, ``stream`` replays a job's events from any
  seq and then follows live.
* **The wire boundary** — ``submit`` takes artifact *names* and raw
  parameter overrides, validates them against each spec's schema and
  only then queues :class:`~repro.experiments.runner.Task` objects, so a
  bad point fails the submit, not a worker.
* **Drain** — ``request_drain()`` (wired to SIGINT by ``serve``)
  rejects new submits, lets queued and running work finish, emits
  every terminal event, then shuts the pool down with ``wait=True`` —
  no orphaned workers, no stream left without its terminal line.
* **Cache GC** — with ``cache_max_bytes`` set, a size-capped LRU pass
  runs after each store (see :meth:`ResultCache.gc`).

The daemon measures itself through ``repro.obs.metrics`` (queue depth,
wait time, execution time, worker utilization) — wall-clock ms, since
the service lives outside the simulator's virtual time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.registry import ExperimentParamError
from repro.experiments.runner import JobError, JobQueue, Task
from repro.obs.metrics import Metrics

__all__ = ["ExperimentService", "ServiceConfig", "ServiceError"]

#: the queue's error under the name the daemon's clients catch
ServiceError = JobError


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


class ExperimentService(JobQueue):
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
        self.config = config = config or ServiceConfig()
        super().__init__(
            workers=config.workers, quota=config.quota,
            keep_jobs=config.keep_jobs, cache=cache, refresh=config.refresh,
            metrics=metrics,
        )
        self._draining = False
        self._stopped = False
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

    def _scheduler_loop(self) -> None:
        self._run_until(lambda: self._draining and not self._open)
        self.close()
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # the queue, as the daemon extends it
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
        validated: list[Task] = []
        for spec_name, overrides, label in tasks:
            try:
                spec = registry.get(spec_name)
            except KeyError as exc:
                raise ServiceError(str(exc)) from None
            validated.append(Task(spec, spec.validate(overrides or {}), label=label))
        if not artifact:
            artifact = validated[0].spec.name if len(validated) == 1 else "batch"
        with self._cond:  # one critical section with the scheduler's drained check
            if self._draining:
                raise ServiceError("daemon is draining; not accepting jobs")
            return self.enqueue(
                validated, client=client or "anonymous", artifact=artifact,
                priority=priority,
            )

    def stats(self) -> dict[str, Any]:
        out = super().stats()
        out["draining"] = self._draining
        return out

    def _store(self, task: Task, result: Any) -> None:
        super()._store(task, result)
        if self.config.cache_max_bytes is not None:
            self.cache.gc(self.config.cache_max_bytes)

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
