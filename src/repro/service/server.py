"""The experiment daemon: the job queue behind a local socket.

``ExperimentService`` is :class:`~repro.experiments.runner.JobQueue` —
the same pick order, cache resolve, in-flight dedup, worker pool, crash
policy and event log the in-process client drives — plus what only a
long-running server needs:

* **A scheduler thread** that drives the queue, an accept thread, and a
  handler thread per open connection (``svc-conn-N``) serving the JSONL
  protocol (:mod:`repro.service.protocol`) line after line until the
  client closes; ``stream`` replays a job's events from any seq, then
  follows live, one write per batch, up to the terminal event.
* **The wire boundary** — ``submit`` takes artifact *names* and raw
  parameter overrides, validates them against each spec's schema and
  only then queues :class:`~repro.experiments.runner.Task` objects, so a
  bad point fails the submit, not a worker.
* **Drain** — ``request_drain()`` (wired to SIGINT by ``serve``)
  rejects new submits, lets queued and running work finish, emits
  every terminal event, then shuts the pool down with ``wait=True`` and
  the read side of each open connection (an answer in flight still goes
  out) — no orphaned workers or handlers, no stream without its terminal line.
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
from repro.obs.metrics import MetricNames, Metrics

__all__ = ["ExperimentService", "ServiceConfig", "ServiceError"]

#: the queue's error under the name the daemon's clients catch
ServiceError = JobError


#: JSON type of each request (and task) field the daemon reads
_FIELDS = {
    "op": str, "job_id": str, "client": str, "artifact": str, "label": str,
    "from_seq": int, "priority": int, "tasks": list,
    "params": (dict, type(None)), "timeout": (int, float, type(None)),
}


def _checked(req: Any) -> dict:
    """``req`` if it is a JSON object whose known fields have their JSON
    types: a wrong line is answered, never raised into the handler thread."""
    if not isinstance(req, dict):
        raise ServiceError(f"a request is a JSON object, not {req!r}")
    for name, value in req.items():
        if not isinstance(value, _FIELDS.get(name, object)):
            raise ServiceError(f"bad request field {name!r}: {value!r}")
    return req


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
        #: open connections and the handler thread serving each
        self._conns: dict[Any, threading.Thread] = {}
        self._counts.update(connections=0, requests=0)  # accepted / lines answered

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
        with self._cond:  # the accept thread has ended: this table only shrinks now
            conns = dict(self._conns)
        for conn in conns:
            conn.shutdown_read()  # its handler reads EOF once its answer is out
        for handler in conns.values():
            handler.join(timeout=5.0)
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
        self.metrics.gauge(MetricNames.SVC_OPEN_CONNS, float(len(self._conns)))
        out = super().stats()
        out["draining"] = self._draining
        return out

    def _store(self, task: Task, payload: Any) -> None:
        super()._store(task, payload)
        if self.config.cache_max_bytes is not None:
            self.cache.gc(self.config.cache_max_bytes)

    # ------------------------------------------------------------------
    # the socket layer
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        from repro.service import protocol

        while True:
            with self._cond:
                if self._stopped:
                    return
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            conn = protocol.Connection(sock)
            with self._cond:
                if self._stopped:  # _join()'s wake-up call
                    conn.close()
                    return
                self._counts["connections"] += 1
                handler = self._conns[conn] = threading.Thread(
                    target=self._serve, args=(conn,), daemon=True,
                    name=f"svc-conn-{self._counts['connections']}",
                )
            handler.start()

    def _serve(self, conn) -> None:
        """A connection's handler thread: answer its request lines one at a
        time until the client closes (or :meth:`_join` shuts the read side)."""
        from repro.service import protocol

        try:
            while True:
                try:
                    req, bad = conn.recv(protocol.MAX_REQUEST), None
                except protocol.ProtocolError as exc:
                    req, bad = {}, exc
                if req is None:
                    return
                with self._cond:
                    self._counts["requests"] += 1
                try:
                    if bad is not None:
                        raise bad
                    response = self._handle_op(conn, req)
                except (ServiceError, ExperimentParamError,
                        protocol.ProtocolError) as exc:
                    response = {"ok": False, "error": str(exc)}
                if response is not None:
                    conn.send(response)
                if isinstance(bad, protocol.LineTooLong):
                    return  # the rest of that line is unread: framing is lost
        except OSError:
            pass  # the peer went away mid-exchange
        finally:
            with self._cond:
                del self._conns[conn]
            conn.close()

    def _handle_op(self, conn, req: Any) -> dict | None:
        op = _checked(req).get("op")
        job_id, from_seq = req.get("job_id"), req.get("from_seq", 0)
        if job_id is None and op in ("status", "poll", "result", "cancel", "stream"):
            raise ServiceError(f"{op} needs a job_id")
        if op == "ping":
            return {"ok": True, "pid": __import__("os").getpid()}
        if op == "submit":
            job_id = self.submit(
                req.get("client", "anonymous"),
                [
                    (_checked(t).get("artifact"), t.get("params"), t.get("label", ""))
                    for t in req.get("tasks", [])
                ],
                artifact=req.get("artifact", ""),
                priority=req.get("priority", 0),
            )
            return {"ok": True, "job_id": job_id}
        if op == "status":
            return {"ok": True, "job": self.status(job_id).to_json()}
        if op == "poll":
            events = self.events(job_id, from_seq)
            return {
                "ok": True,
                "job": self.status(job_id).to_json(),
                "events": [e.to_json() for e in events],
            }
        if op == "result":
            record = self.wait(job_id, req.get("timeout"))
            return {"ok": True, "job": record.to_json()}
        if op == "cancel":
            return {"ok": True, "job": self.cancel(job_id).to_json()}
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
        if op != "stream":
            raise ServiceError(f"unknown op {op!r}")
        self._job(job_id)  # an unknown job is answered, before the ack goes out
        conn.send({"ok": True, "job_id": job_id})
        for batch in self.event_batches(job_id, from_seq):
            conn.send(*[{"event": event.to_json()} for event in batch])
        return None  # this answer is written: the ack, then a line per event
