"""`ExperimentClient` — one typed surface for running experiments.

The same ``submit`` / ``status`` / ``result`` / ``stream`` calls work
against two backends:

* **in-process** (``ExperimentClient.in_process(...)``) — no daemon:
  ``submit`` validates, expands sweeps, and drives the same
  :class:`~repro.experiments.runner.JobQueue` the daemon schedules with
  in the calling thread until the job is terminal, so
  ``stream``/``status`` replay the event log a daemon would have sent.
  The ``run``/``sweep`` CLI subcommands are thin wrappers over this
  backend.
* **daemon** (``ExperimentClient.connect(address)``) — every call is
  one JSONL exchange with a running ``repro-experiments serve``
  (:mod:`repro.service.protocol`) over a connection the client keeps
  open between calls; ``stream`` tails the job live.

Results come back as live result objects either way: the daemon path
reconstructs them with each spec's ``from_json`` — the identical
round trip the result cache has always performed, so rendering is
byte-identical to a local run.
"""

from __future__ import annotations

import getpass
import json
import os
import sys
from functools import partial
from typing import Any, Callable, Iterator, Sequence

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.runner import JobQueue, Task
from repro.experiments.serde import JobEvent, JobRecord
from repro.experiments.sweep import grid_tasks

__all__ = ["ExperimentClient", "echo_progress"]


def _whoami() -> str:
    try:
        user = getpass.getuser()
    except Exception:
        user = "client"
    return f"{user}@{os.getpid()}"


def echo_progress(
    event: JobEvent, say: Callable[[str], None] | None = None
) -> None:
    """Render one job event as a progress line and hand it to ``say``
    (default: print to stderr) — the one renderer of both backends'
    progress.  Events with nothing to tell a user render nothing."""
    data = event.data
    label = data.get("label")
    if event.kind == "task.started":
        retry = data.get("attempt", 1) > 1
        line = f"[{label}] " + ("worker crashed; retrying" if retry else "running")
    elif event.kind == "task.cached":
        line = f"[{label}] cache hit"
    elif event.kind == "task.finished" and data.get("source") != "cache":
        line = f"[{label}] done ({data.get('source')})"
    elif event.terminal:
        line = f"[{event.job_id}] {event.kind} {json.dumps(data, sort_keys=True)}"
    else:
        return
    if say is None:
        print(line, file=sys.stderr, flush=True)
    else:
        say(line)


class _LocalJobs(JobQueue):
    """The no-daemon backend: the job queue, driven by the submitting
    thread until the job is terminal."""

    def submit(
        self, tasks: list[Task], *, artifact: str, priority: int, client: str
    ) -> str:
        job_id = self.enqueue(
            tasks, client=client, artifact=artifact, priority=priority
        )
        self.drive(job_id)
        return job_id


class _DaemonJobs:
    """The socket backend: every verb is one protocol exchange on the
    connection this client keeps open.  An exchange leases it; a verb
    issued meanwhile (a suspended ``stream``, a second thread) opens one
    of its own, and whichever finishes second is closed."""

    def __init__(self, address: str, timeout: float | None = None):
        import threading

        from repro.service import protocol

        self._protocol = protocol
        self.address = address
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle = None  # the open connection, while no exchange holds it
        self._gone = f"daemon at {address} closed the connection"
        self._last: JobRecord | None = None  # a terminal record never changes

    def _exchange(self, payload: dict):
        """Send ``payload`` and read the first line of its answer;
        returns (the connection, still leased; that line)."""
        with self._lock:
            conn, self._idle = self._idle, None
        while True:
            reused = conn is not None
            if not reused:
                conn = self._protocol.connect(self.address, self.timeout)
                self._last = None  # maybe a new daemon, numbering its jobs afresh
            try:
                conn.send(payload)
                answer = conn.recv()
            except ConnectionError:
                answer = None
            except BaseException:
                conn.close()
                raise
            if answer is not None:
                return conn, answer
            conn.close()
            if not reused:
                raise self._protocol.ProtocolError(self._gone)
            conn = None  # no answer byte came (the daemon restarted): reopen, once

    def _release(self, conn=None) -> None:
        """Make ``conn`` the idle connection and close the one that was
        (a lease taken meanwhile ended first and left its own there)."""
        with self._lock:
            conn, self._idle = self._idle, conn
        if conn is not None:
            conn.close()

    def _request(self, payload: dict) -> dict:
        conn, response = self._exchange(payload)
        self._release(conn)
        if not response.get("ok", False):
            raise self._protocol.ProtocolError(response.get("error", "daemon error"))
        return response

    def _job(self, op: str, job_id: str, **fields) -> JobRecord:
        """The job's record as verb ``op`` answers it — from the last
        terminal record fetched when it is that job's."""
        last = self._last
        if last is not None and last.job_id == job_id:
            return last
        response = self._request({"op": op, "job_id": job_id, **fields})
        record = JobRecord.from_json(response["job"])
        if record.terminal:
            self._last = record
        return record

    def submit(
        self, tasks: list[Task], *, artifact: str, priority: int, client: str
    ) -> str:
        response = self._request({
            "op": "submit",
            "client": client,
            "artifact": artifact,
            "priority": priority,
            "tasks": [
                {"artifact": t.spec.name, "params": t.params, "label": t.label}
                for t in tasks
            ],
        })
        return response["job_id"]

    def status(self, job_id: str) -> JobRecord:
        return self._job("status", job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        return self._job("result", job_id, timeout=timeout)

    def events(self, job_id: str, from_seq: int = 0) -> list[JobEvent]:
        response = self._request(
            {"op": "poll", "job_id": job_id, "from_seq": from_seq}
        )
        return [JobEvent.from_json(e) for e in response["events"]]

    def stream(self, job_id: str, from_seq: int = 0) -> Iterator[JobEvent]:
        conn, message = self._exchange(
            {"op": "stream", "job_id": job_id, "from_seq": from_seq}
        )
        try:  # the ack, then event lines; any other line is an error answer
            while "event" in message or message.get("ok", False):
                if "event" in message:
                    event = JobEvent.from_json(message["event"])
                    if event.terminal:  # the answer's last line: the lease ends
                        conn = self._release(conn)
                    yield event
                    if event.terminal:
                        return
                message = conn.recv() or {"error": self._gone}
            raise self._protocol.ProtocolError(message.get("error", "daemon error"))
        finally:
            if conn is not None:
                conn.close()  # failed or abandoned: events may still be in flight

    def results(self, job_id: str) -> list[Any]:
        record = self.wait(job_id)
        if not record.terminal:
            raise TimeoutError(f"job {job_id} still {record.state}")
        if record.state != "done":
            raise RuntimeError(
                f"job {job_id} {record.state}: {record.error or 'no results'}"
            )
        out = []
        for spec_name, payload in zip(record.artifacts, record.results or []):
            spec = registry.get(spec_name)
            out.append(spec.result_from_json(payload))
        return out

    def cancel(self, job_id: str) -> JobRecord:
        return self._job("cancel", job_id)

    def list_jobs(self) -> list[JobRecord]:
        return [
            JobRecord.from_json(j)
            for j in self._request({"op": "list-jobs"})["jobs"]
        ]

    def stats(self) -> dict[str, Any]:
        return self._request({"op": "stats"})["stats"]

    def close(self) -> None:
        self._release()


class ExperimentClient:
    """The unified client.  Build with :meth:`in_process` or
    :meth:`connect`; every verb behaves identically on both."""

    def __init__(self, backend, *, client: str | None = None):
        self._backend = backend
        self.client = client or _whoami()

    # -- constructors ----------------------------------------------------
    @classmethod
    def in_process(
        cls,
        *,
        jobs: int = 1,
        cache: ResultCache | None = None,
        refresh: bool = False,
        client: str | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> "ExperimentClient":
        """``jobs`` worker processes (``<= 1``: run in this thread);
        ``progress`` receives one line per job event as it is emitted
        (default: print to stderr)."""
        return cls(
            _LocalJobs(
                workers=jobs if jobs > 1 else 0, cache=cache, refresh=refresh,
                job_ids="local-{:04d}", on_event=partial(echo_progress, say=progress),
            ),
            client=client,
        )

    @classmethod
    def connect(
        cls,
        address: str | None = None,
        *,
        timeout: float | None = None,
        client: str | None = None,
    ) -> "ExperimentClient":
        from repro.service.protocol import default_address

        return cls(
            _DaemonJobs(address or default_address(), timeout), client=client
        )

    # -- submission ------------------------------------------------------
    def submit(
        self,
        artifact: str | None = None,
        params: dict | None = None,
        *,
        axes: dict[str, Sequence[Any]] | None = None,
        tasks: Sequence[tuple[str, dict | None]] | None = None,
        priority: int = 0,
    ) -> str:
        """Queue work and return its job id.

        Three shapes: ``submit("table4", {"iters": 5})`` runs one
        artifact; ``submit("faults", fixed, axes={"drops": [...]})``
        expands a sweep grid (one task per point, same labels as the
        ``sweep`` CLI); ``submit(tasks=[("table1", None), ...])``
        batches several artifacts into one job.
        """
        if tasks is not None:
            if artifact is not None or axes is not None:
                raise ValueError("pass either tasks= or artifact/axes, not both")
            built = [
                Task(registry.get(name), registry.get(name).validate(p or {}))
                for name, p in tasks
            ]
            return self._backend.submit(
                built, artifact="batch" if len(built) > 1 else built[0].spec.name,
                priority=priority, client=self.client,
            )
        if artifact is None:
            raise ValueError("submit needs an artifact or tasks=")
        spec = registry.get(artifact)
        if axes:
            built = grid_tasks(spec, axes, params)
            return self._backend.submit(
                built, artifact=f"sweep:{spec.name}",
                priority=priority, client=self.client,
            )
        task = Task(spec, spec.validate(params or {}))
        return self._backend.submit(
            [task], artifact=spec.name, priority=priority, client=self.client
        )

    # -- observation -----------------------------------------------------
    def status(self, job_id: str) -> JobRecord:
        return self._backend.status(job_id)

    def events(self, job_id: str, from_seq: int = 0) -> list[JobEvent]:
        """Non-blocking poll of the job's event log."""
        return self._backend.events(job_id, from_seq)

    def stream(self, job_id: str, from_seq: int = 0) -> Iterator[JobEvent]:
        """Events as they happen, ending with the terminal one."""
        return self._backend.stream(job_id, from_seq)

    def wait(self, job_id: str, timeout: float | None = None) -> JobRecord:
        """Block until the job is terminal; returns its record."""
        return self._backend.wait(job_id, timeout)

    def result(self, job_id: str) -> list[Any]:
        """The job's live result objects, in task order (waits for
        completion; raises on a failed/cancelled job)."""
        return self._backend.results(job_id)

    # -- control ---------------------------------------------------------
    def cancel(self, job_id: str) -> JobRecord:
        return self._backend.cancel(job_id)

    def list_jobs(self) -> list[JobRecord]:
        return self._backend.list_jobs()

    def stats(self) -> dict[str, Any]:
        return self._backend.stats()

    def close(self) -> None:
        """Release what the backend holds: the daemon connection, or the pool."""
        self._backend.close()

    def __enter__(self) -> "ExperimentClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
