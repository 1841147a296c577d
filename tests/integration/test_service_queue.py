"""Integration: the job queue's semantics on the bare
:class:`~repro.experiments.runner.JobQueue`, driven synchronously
(``workers=0`` + ``run_pending``) — pick order, per-client quota,
in-flight dedup, cache resolution, cancel — the daemon's submission
boundary and drain, plus the versioned JobRecord/JobEvent envelope
round trip.
"""

import dataclasses
import hashlib
import os
from dataclasses import dataclass

import pytest

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.registry import ExperimentParamError, ExperimentSpec, ParamSpec
from repro.experiments.serde import (
    JOB_SCHEMA_VERSION,
    JobEvent,
    JobRecord,
)
from repro.experiments.runner import JobError, JobQueue, Task
from repro.service.server import ExperimentService, ServiceConfig, ServiceError


# --- a tiny registered spec the inline executor can import ---------------

@dataclass
class SvcResult:
    value: int

    def render(self) -> str:
        return f"svc value={self.value}"

    def to_json(self) -> dict:
        return {"value": self.value}

    @classmethod
    def from_json(cls, payload: dict) -> "SvcResult":
        return cls(**payload)


#: set to a file path to log execution order (priority-order test)
ORDER_ENV = "REPRO_SVC_ORDER_FILE"


def run_svc(*, value: int = 0) -> SvcResult:
    path = os.environ.get(ORDER_ENV)
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{value}\n")
    return SvcResult(value)


_HERE = "tests.integration.test_service_queue"

try:
    registry.get("svc-tiny")
except KeyError:
    registry.register(ExperimentSpec(
        name="svc-tiny", title="service-test artifact", module=_HERE,
        entry="run_svc", result_type="SvcResult",
        params=(ParamSpec("value", "int", 0),),
    ))


def make_service(**config) -> ExperimentService:
    return ExperimentService(config=ServiceConfig(workers=0, **config))


def one(value: int) -> list:
    return [("svc-tiny", {"value": value}, "")]


def submit(queue: JobQueue, client: str, *values: int, priority: int = 0) -> str:
    """Queue one job of svc-tiny tasks on the bare queue."""
    spec = registry.get("svc-tiny")
    return queue.enqueue(
        [Task(spec, spec.validate({"value": v})) for v in values],
        client=client, artifact="svc-tiny", priority=priority,
    )


class TestSerde:
    def test_event_round_trips(self):
        event = JobEvent(kind="row", job_id="j0001", seq=3, data={"index": 0})
        back = JobEvent.from_json(event.to_json())
        assert back == event and back.version == JOB_SCHEMA_VERSION
        assert not back.terminal

    def test_terminal_events(self):
        for kind in ("job.done", "job.failed", "job.cancelled"):
            assert JobEvent(kind=kind, job_id="j", seq=0).terminal

    def test_record_round_trips_exactly(self):
        record = JobRecord(
            job_id="j0001", client="c", artifact="sweep:scaling",
            state="done", artifacts=["scaling"],
            params=[{"sizes": (20, 200)}],  # tuple normalizes to list
            labels=["scaling sizes=20"], tasks_total=1, tasks_done=1,
            results=[{"points": []}],
        )
        back = JobRecord.from_json(record.to_json())
        assert back == record
        assert back.params == [{"sizes": [20, 200]}]
        assert back.terminal

    def test_newer_schema_version_rejected(self):
        payload = JobRecord(job_id="j", client="c", artifact="a").to_json()
        payload["version"] = JOB_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported schema version"):
            JobRecord.from_json(payload)
        payload["flow"] = 1  # a newer build's field: the version is still what is named
        with pytest.raises(ValueError, match="unsupported schema version"):
            JobRecord.from_json(payload)
        event = JobEvent(kind="row", job_id="j", seq=0).to_json()
        event["version"] = JOB_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported schema version"):
            JobEvent.from_json(event)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            JobRecord(job_id="j", client="c", artifact="a", state="exploded")

    def test_unknown_field_rejected(self):
        payload = JobEvent(kind="row", job_id="j", seq=0).to_json()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            JobEvent.from_json(payload)


class TestSubmitBoundary:
    def test_empty_job_rejected(self):
        with pytest.raises(ServiceError, match="at least one task"):
            make_service().submit("c", [])

    def test_unknown_artifact_rejected(self):
        with pytest.raises(ServiceError, match="unknown experiment"):
            make_service().submit("c", [("figure7", None, "")])

    def test_bad_params_fail_the_submit_not_the_worker(self):
        with pytest.raises(ExperimentParamError, match="no parameter"):
            make_service().submit("c", [("svc-tiny", {"bogus": 1}, "")])

    def test_trace_round_trips_over_the_wire(self, tmp_path):
        """The one artifact the daemon used to refuse (its result held the
        live recorder): plain data now, so it crosses a real socket and
        the second submit is served from the daemon's cache."""
        from repro.service import ExperimentClient
        from tests.integration.test_obs_determinism import QUICK_TRACE_SHA256

        address = str(tmp_path / "svc.sock")
        svc = ExperimentService(
            address, config=ServiceConfig(workers=0),
            cache=ResultCache(tmp_path / "cache"),
        ).start()
        try:
            client = ExperimentClient.connect(address)
            first = client.submit("trace")
            (result,) = client.result(first)
            written = result.extra_files()["trace.json"].encode()
            assert hashlib.sha256(written).hexdigest() == QUICK_TRACE_SHA256
            second = client.submit("trace")
            assert client.result(second) == [result]
            kinds = [[e.kind for e in client.events(job)] for job in (first, second)]
            assert "task.started" in kinds[0] and "task.cached" not in kinds[0]
            assert "task.cached" in kinds[1] and "task.started" not in kinds[1]
        finally:
            svc.stop(drain=False)

    def test_draining_rejects_submits(self):
        svc = make_service()
        svc.request_drain()
        with pytest.raises(ServiceError, match="draining"):
            svc.submit("c", one(1))


class TestQueueSemantics:
    def test_inline_job_runs_to_done_with_full_event_log(self):
        q = JobQueue()
        job = submit(q, "c", 7)
        assert q.status(job).state == "queued"
        assert q.run_pending() == 1
        record = q.status(job)
        assert record.state == "done" and record.tasks_done == 1
        assert record.results == [{"value": 7}]
        kinds = [e.kind for e in q.events(job)]
        assert kinds == [
            "job.queued", "task.started", "task.finished", "row", "job.done",
        ]
        seqs = [e.seq for e in q.events(job)]
        assert seqs == list(range(len(kinds)))  # dense, from 0

    def test_wait_timeout_returns_non_terminal_record(self):
        q = JobQueue()
        job = submit(q, "c", 1)
        record = q.wait(job, timeout=0.01)
        assert not record.terminal and record.state == "queued"

    def test_priority_order_beats_submission_order(self, tmp_path, monkeypatch):
        order = tmp_path / "order.log"
        monkeypatch.setenv(ORDER_ENV, str(order))
        q = JobQueue()
        submit(q, "c", 1, priority=0)
        submit(q, "c", 2, priority=5)
        submit(q, "c", 3, priority=0)
        assert q.run_pending() == 3
        assert order.read_text().split() == ["2", "1", "3"]

    def test_longest_task_of_a_job_is_picked_first(self, tmp_path, monkeypatch):
        order = tmp_path / "order.log"
        monkeypatch.setenv(ORDER_ENV, str(order))
        spec = registry.get("svc-tiny")
        tasks = [
            Task(dataclasses.replace(spec, cost_hint=cost), {"value": i})
            for i, cost in enumerate((1.0, 5.0, 1.0, 3.0))
        ]
        q = JobQueue()
        job = q.enqueue(tasks, client="c", artifact="batch")
        assert q.run_pending() == 4
        assert order.read_text().split() == ["1", "3", "0", "2"]
        assert q.status(job).results == [{"value": i} for i in range(4)]

    def test_quota_skips_saturated_client(self):
        q = JobQueue(workers=4, quota=1)
        submit(q, "hog", 1, 2)
        other = submit(q, "interactive", 3)
        with q._cond:
            job1, _ = q._pick_locked()  # hog's first task claims its quota
            assert job1.record.client == "hog"
            job2, _ = q._pick_locked()
            # hog's second task is skipped: the later client runs instead
            assert job2.record.job_id == other
            assert q._pick_locked() is None  # ... and stays queued
        assert q.stats()["queue_depth"] == 1

    def test_identical_inflight_task_dedups_instead_of_rerunning(self):
        q = JobQueue()
        j1 = submit(q, "a", 7)
        with q._cond:
            action = q._pick_locked()  # j1's task is now in flight
        j2 = submit(q, "b", 7)
        with q._cond:
            assert q._pick_locked() is None  # folded into the twin
        q._dispatch(*action)
        r1, r2 = q.status(j1), q.status(j2)
        assert r1.state == r2.state == "done"
        assert (r1.dedup_hits, r2.dedup_hits) == (0, 1)
        assert r2.results == r1.results == [{"value": 7}]
        finished = [e for e in q.events(j2) if e.kind == "task.finished"]
        assert finished[0].data["source"] == "dedup"
        assert q.stats()["counts"]["tasks_executed"] == 1

    def test_many_identical_tasks_fold_without_recursion(self):
        """The fold is a loop: 1 500 twins of an in-flight task used to
        cost one Python frame each."""
        q = JobQueue()
        job = submit(q, "c", *[7] * 1500)
        with q._cond:
            action = q._pick_locked()  # the first is in flight
            assert q._pick_locked() is None  # the other 1 499 fold into it
        q._dispatch(*action)
        record = q.status(job)
        assert record.state == "done" and record.dedup_hits == 1499
        assert record.results == [{"value": 7}] * 1500
        assert q.stats()["counts"]["tasks_executed"] == 1

    def test_cache_resolves_repeat_jobs_without_execution(self, tmp_path):
        q = JobQueue(cache=ResultCache(tmp_path, version="q"))
        j1 = submit(q, "a", 5)
        assert q.run_pending() == 1
        j2 = submit(q, "b", 5)
        assert q.run_pending() == 1
        r2 = q.status(j2)
        assert r2.state == "done" and r2.cache_hits == 1
        assert "task.cached" in [e.kind for e in q.events(j2)]
        assert q.stats()["counts"]["tasks_executed"] == 1
        assert q.status(j1).results == r2.results

    def test_unreadable_cache_entry_is_asked_once_then_executed(self, tmp_path):
        cache = ResultCache(tmp_path, version="q")
        q = JobQueue(cache=cache)
        job = submit(q, "c", 5)
        spec = registry.get("svc-tiny")
        path = cache.path(spec, spec.validate({"value": 5}))
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        # the pre-pass that only claims likely hits gives the task back ...
        assert q.run_pending(cached_only=True) == 1
        assert q.stats()["queue_depth"] == 1 and not q.status(job).terminal
        # ... once: asked again it has nothing to claim, and the task runs
        assert q.run_pending(cached_only=True) == 0
        assert q.run_pending() == 1
        assert q.status(job).results == [{"value": 5}]
        assert (cache.misses, cache.stores) == (1, 1)

    def test_cancel_drops_queued_tasks_and_ends_the_stream(self):
        q = JobQueue()
        job = submit(q, "c", 1)
        record = q.cancel(job)
        assert record.state == "cancelled"
        assert record.error.startswith("cancelled")
        assert q.run_pending() == 0  # nothing left to move
        events = q.events(job)
        assert events[-1].kind == "job.cancelled"
        assert events[-1].data["dropped_tasks"] == 1
        # cancelling a terminal job is a no-op
        assert q.cancel(job).state == "cancelled"

    def test_terminal_jobs_trimmed_past_keep_jobs(self):
        q = JobQueue(keep_jobs=1)
        j1 = submit(q, "c", 1)
        q.run_pending()
        j2 = submit(q, "c", 2)
        with pytest.raises(JobError, match="unknown job"):
            q.status(j1)
        assert q.status(j2).state == "queued"

    def test_failed_task_fails_the_job_with_terminal_event(self, monkeypatch):
        q = JobQueue()
        job = submit(q, "c", 1, 2)

        def boom(*a, **k):
            raise RuntimeError("kaput")

        monkeypatch.setattr("repro.experiments.runner._execute", boom)
        q.run_pending()
        record = q.status(job)
        assert record.state == "failed" and "kaput" in record.error
        assert q.events(job)[-1].kind == "job.failed"
        with pytest.raises(RuntimeError, match="failed: RuntimeError: kaput"):
            q.results(job)
        assert q.stats()["queue_depth"] == 0  # the sibling was dropped

    def test_stats_reports_counters_and_histograms(self, tmp_path):
        svc = ExperimentService(
            config=ServiceConfig(workers=0),
            cache=ResultCache(tmp_path, version="q"),
        )
        svc.submit("c", one(1))
        svc.run_pending()
        stats = svc.stats()
        assert stats["counts"]["jobs_submitted"] == 1
        assert stats["counts"]["tasks_executed"] == 1
        assert stats["cache"]["stores"] == 1
        assert "svc.wait_ms" in stats["histograms"]
        assert stats["queue_depth"] == 0 and not stats["draining"]

    def test_event_replay_from_seq(self):
        q = JobQueue()
        job = submit(q, "c", 1)
        q.run_pending()
        tail = q.events(job, from_seq=3)
        assert [e.kind for e in tail] == ["row", "job.done"]
        assert tail[0].seq == 3
        # a stream is its batches flattened, and ends with the terminal
        # event even when asked to start past it (it used to spin there)
        assert list(q.stream(job, from_seq=3)) == tail
        assert [b[-1].kind for b in q.event_batches(job)] == ["job.done"]
        assert list(q.stream(job, from_seq=99)) == tail[-1:]
