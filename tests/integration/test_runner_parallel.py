"""Integration: the job queue as the in-process client drives it, the
orchestrating CLI, sweeps.

The headline guarantee: a parallel run is **byte-identical** to a serial
one — sharding and completion order are invisible in stdout — and a
second cached invocation renders without re-running any simulation.
"""

import io
import contextlib
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments import registry, serde
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main
from repro.experiments.registry import ExperimentSpec, ParamSpec
from repro.experiments.runner import Task, task_seed
from repro.experiments.sweep import grid_tasks, numeric_summary
from repro.service import ExperimentClient, ExperimentService
from repro.service.server import ServiceConfig


# --- a tiny spec the spawn workers can import by module path -------------

@dataclass
class TinyResult:
    value: int

    def render(self) -> str:
        return f"tiny value={self.value}"

    def to_json(self) -> dict:
        return {"value": self.value}

    @classmethod
    def from_json(cls, payload: dict) -> "TinyResult":
        return cls(**payload)


def run_tiny(*, value: int = 1) -> TinyResult:
    return TinyResult(value)


def run_crashy(*, marker: str = "") -> TinyResult:
    """Dies like a segfault on the first attempt; succeeds on the retry."""
    path = Path(marker)
    if path.exists():
        return TinyResult(0)
    path.write_text("attempted", encoding="utf-8")
    os._exit(3)


def run_dies(*, marker: str = "") -> TinyResult:
    """Dies on every attempt."""
    os._exit(3)


def sum_tiny(*results: TinyResult) -> TinyResult:
    """``tinysum`` from its inputs' results."""
    return TinyResult(100 + sum(r.value for r in results))


def run_tiny_sum() -> TinyResult:
    """``tinysum`` stand-alone: compute its input, then sum."""
    return sum_tiny(run_tiny())


_HERE = "tests.integration.test_runner_parallel"


def tiny_spec(name="tiny", entry="run_tiny", **extra) -> ExperimentSpec:
    return ExperimentSpec(
        name=name, title="tiny", module=_HERE, entry=entry,
        result_type="TinyResult",
        params=(ParamSpec("value", "int", 1),) if entry == "run_tiny"
        else (ParamSpec("marker", "str", ""),),
        **extra,
    )


#: a spec computed from another's result, as the scorecard is: its input
#: is ``tiny`` at its defaults
TINY_SUM = ExperimentSpec(
    name="tinysum", title="tiny sum", module=_HERE, entry="run_tiny_sum",
    result_type="TinyResult", cost_hint=0.0, inputs=("tiny",), from_inputs="sum_tiny",
)

# the daemon resolves artifacts by name, so these are registered
for _spec in (tiny_spec(), tiny_spec("crashy", "run_crashy"), TINY_SUM):
    try:
        registry.get(_spec.name)
    except KeyError:
        registry.register(_spec)


def run_job(tasks, **client_options):
    """One in-process job over ``tasks``: (client, job id, results)."""
    client_options.setdefault("progress", lambda m: None)
    client = ExperimentClient.in_process(**client_options)
    job = client._backend.submit(
        list(tasks), artifact="test", priority=0, client="test"
    )
    return client, job, client.result(job)


def sources(client, job) -> list[str]:
    """``source`` of each task's ``task.finished`` event, in task order."""
    finished = sorted(
        (e.data["index"], e.data["source"])
        for e in client.events(job) if e.kind == "task.finished"
    )
    return [source for _, source in finished]


def cli(argv, cache_dir, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    out = capsys.readouterr().out
    return rc, out, err.getvalue()


class TestRunner:
    def test_outcomes_in_input_order_despite_cost_order(self):
        tasks = [
            Task(tiny_spec(cost_hint=float(i)), {"value": i}, label=f"t{i}")
            for i in range(5)
        ]
        client, job, results = run_job(tasks, jobs=2)
        assert [r.value for r in results] == [0, 1, 2, 3, 4]
        assert sources(client, job) == ["run"] * 5
        # ... while the tasks were started longest-first
        started = [e.data["label"] for e in client.events(job) if e.kind == "task.started"]
        assert started == ["t4", "t3", "t2", "t1", "t0"]

    def test_parallel_equals_serial(self):
        tasks = [Task(tiny_spec(), {"value": i}) for i in range(4)]
        _, _, serial = run_job(tasks, jobs=1)
        _, _, parallel = run_job(tasks, jobs=3)
        assert serial == parallel

    def test_worker_crash_retries_once(self, tmp_path):
        marker = tmp_path / "crash.marker"
        tasks = [
            Task(tiny_spec(), {"value": 7}),
            Task(tiny_spec("crashy", "run_crashy"), {"marker": str(marker)}),
        ]
        lines = []
        client, job, results = run_job(tasks, jobs=2, progress=lines.append)
        assert marker.read_text() == "attempted"  # it really died once
        assert results == [TinyResult(7), TinyResult(0)]
        assert sources(client, job)[1] == "retry"
        restarted = [
            e.data for e in client.events(job)
            if e.kind == "task.started" and e.data["index"] == 1
        ]
        assert [d.get("attempt", 1) for d in restarted] == [1, 2]
        assert any("crashed" in line for line in lines)

    def test_task_seed_deterministic_and_param_sensitive(self):
        spec = tiny_spec()
        assert task_seed(spec, {"value": 1}) == task_seed(spec, {"value": 1})
        assert task_seed(spec, {"value": 1}) != task_seed(spec, {"value": 2})

    def test_cache_skips_execution_and_refresh_reruns(self, tmp_path):
        cache = ResultCache(tmp_path, version="t")
        tasks = [Task(tiny_spec(), {"value": 3})]
        c1, j1, first = run_job(tasks, cache=cache)
        c2, j2, second = run_job(tasks, cache=cache)
        assert (sources(c1, j1), sources(c2, j2)) == (["run"], ["cache"])
        assert second == first
        c3, j3, _ = run_job(tasks, cache=cache, refresh=True)
        assert sources(c3, j3) == ["run"]

    def test_warm_parallel_job_spawns_no_pool(self, tmp_path):
        """With at most one task left after cache resolution the job runs
        in the calling thread: a warm `--jobs 2` rerun builds no pool."""
        cache = ResultCache(tmp_path, version="t")
        tasks = [Task(tiny_spec(), {"value": i}) for i in range(3)]
        run_job(tasks[:2], cache=cache)
        built = []
        client = ExperimentClient.in_process(
            jobs=2, cache=cache, progress=lambda m: None
        )
        client._backend._ensure_pool = lambda: built.append(1)  # must not be called
        job = client._backend.submit(tasks, artifact="t", priority=0, client="t")
        assert client.result(job) == [TinyResult(i) for i in range(3)]
        assert sources(client, job) == ["cache", "cache", "run"] and not built

    def test_same_event_sequence_in_process_and_from_the_daemon(self, tmp_path):
        """One writer of the event log: the in-process client and an
        `ExperimentService` emit the same events in the same order."""
        def seeded(name):  # a cache that already holds the middle task
            cache = ResultCache(tmp_path / name, version="t")
            run_job([Task(tiny_spec(), {"value": 2})], cache=cache)
            return cache

        def shape(events):
            return [(e.kind, e.data.get("index"), e.data.get("source")) for e in events]

        batch = [("tiny", {"value": v}) for v in (1, 2, 3)]
        local = ExperimentClient.in_process(
            cache=seeded("local"), progress=lambda m: None
        )
        local_log = shape(local.events(local.submit(tasks=batch)))

        service = ExperimentService(
            None, config=ServiceConfig(workers=0), cache=seeded("daemon")
        ).start()
        try:
            job = service.submit("c", [(n, p, "") for n, p in batch])
            assert service.wait(job, timeout=30).state == "done"
            assert shape(service.events(job)) == local_log
        finally:
            service.stop()
        assert [k for k, _, _ in local_log] == [
            "job.queued",
            "task.started", "task.finished", "row",
            "task.cached", "task.finished", "row",
            "task.started", "task.finished", "row",
            "job.done",
        ]


class TestFromInputs:
    """A task whose spec names ``inputs`` is computed from its job's own
    results when the job holds every input, else by its entry."""

    def test_computed_from_the_jobs_results_in_the_driving_thread(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            f"{_HERE}.run_tiny", lambda *, value=1: calls.append(value) or TinyResult(value)
        )
        tasks = [Task(TINY_SUM, {}), Task(tiny_spec(), {"value": 1})]
        client, job, results = run_job(tasks)
        assert results == [TinyResult(101), TinyResult(1)]
        assert calls == [1]  # the input ran once, the sum did not rerun it
        assert sources(client, job) == ["run", "run"]

    def test_waits_for_inputs_running_on_the_pool(self):
        tasks = [Task(tiny_spec(), {"value": 1}), Task(TINY_SUM, {}),
                 Task(tiny_spec(cost_hint=5.0), {"value": 2})]
        client, job, results = run_job(tasks, jobs=2)
        assert results == [TinyResult(1), TinyResult(101), TinyResult(2)]
        order = [(e.kind, e.data["index"]) for e in client.events(job)
                 if e.kind in ("task.started", "task.finished")]
        assert order.index(("task.started", 1)) > order.index(("task.finished", 0))

    def test_runs_its_entry_when_the_job_lacks_an_input(self, monkeypatch):
        monkeypatch.setattr(f"{_HERE}.sum_tiny", None)  # must not be called
        monkeypatch.setattr(f"{_HERE}.run_tiny_sum", lambda: TinyResult(-1))
        _, _, results = run_job([Task(TINY_SUM, {}), Task(tiny_spec(), {"value": 2})])
        assert results == [TinyResult(-1), TinyResult(2)]

    def test_a_cached_result_is_not_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path, version="t")
        tasks = [Task(tiny_spec(), {"value": 1}), Task(TINY_SUM, {})]
        run_job(tasks, cache=cache)
        client, job, results = run_job(tasks, cache=cache)
        assert results == [TinyResult(1), TinyResult(101)]
        assert sources(client, job) == ["cache", "cache"]


def test_an_executed_result_is_encoded_once(tmp_path, monkeypatch):
    """The job's payload and the cache entry share one ``to_json``."""
    to_json, encoded = serde.Codec.to_json, []
    monkeypatch.setattr(
        serde.Codec, "to_json", lambda self: encoded.append(type(self)) or to_json(self)
    )
    spec = registry.get("scaling")
    cache = ResultCache(tmp_path, version="t")
    client, job, (result,) = run_job([Task(spec, spec.validate({"sizes": (20,)}))],
                                     cache=cache)
    assert sources(client, job) == ["run"] and cache.stores == 1
    assert [cls.__name__ for cls in encoded] == ["ScalingResult"]
    assert cache.load(spec, spec.validate({"sizes": (20,)})) == result


class TestCrashPolicy:
    def test_daemon_survives_a_worker_crash(self, tmp_path):
        """A worker that dies breaks its pool; the queue retries the task
        on a fresh one, the next job runs, and the daemon still stops."""
        service = ExperimentService(None, config=ServiceConfig(workers=1)).start()
        stopper = threading.Thread(target=service.stop, daemon=True)
        try:
            marker = tmp_path / "crash.marker"
            first = service.submit("c", [("crashy", {"marker": str(marker)}, "")])
            record = service.wait(first, timeout=60)
            assert marker.read_text() == "attempted"
            assert record.state == "done", record.error
            finished = [e for e in service.events(first) if e.kind == "task.finished"]
            assert [e.data["source"] for e in finished] == ["retry"]
            second = service.submit("c", [("tiny", {"value": 5}, "")])
            assert service.wait(second, timeout=60).state == "done"
            assert service.status(second).results == [{"value": 5}]
        finally:
            stopper.start()
            stopper.join(timeout=30)
        assert not stopper.is_alive()

    def test_second_crash_fails_the_job(self):
        tasks = [
            Task(tiny_spec(), {"value": 1}),
            Task(tiny_spec("dies", "run_dies"), {"marker": ""}),
        ]
        client = ExperimentClient.in_process(jobs=2, progress=lambda m: None)
        job = client._backend.submit(tasks, artifact="t", priority=0, client="t")
        record = client.status(job)
        assert record.state == "failed" and "BrokenProcessPool" in record.error
        with pytest.raises(RuntimeError, match="failed"):
            client.result(job)


class TestCli:
    def test_all_jobs4_byte_identical_to_serial(self, tmp_path, monkeypatch, capsys):
        """The acceptance check: quick `all` output does not depend on
        --jobs (merge order is canonical; timing goes to stderr)."""
        args = ["--iters", "3", "--no-cache"]
        rc1, serial, _ = cli(["run", "all"] + args, tmp_path, monkeypatch, capsys)
        rc2, parallel, err = cli(
            ["run", "all", "--jobs", "4"] + args, tmp_path, monkeypatch, capsys
        )
        assert rc1 == rc2 == 0
        assert serial == parallel
        for name in registry.ARTIFACT_NAMES:
            assert f"=== {name} ===" in serial

    def test_second_invocation_is_all_cache_hits(self, tmp_path, monkeypatch, capsys):
        rc1, out1, err1 = cli(
            ["run", "table4", "--iters", "3"], tmp_path, monkeypatch, capsys
        )
        rc2, out2, err2 = cli(
            ["run", "table4", "--iters", "3"], tmp_path, monkeypatch, capsys
        )
        assert rc1 == rc2 == 0 and out1 == out2
        assert "cache hit" not in err1
        assert "cache hit" in err2 and "(run)" not in err2

    def test_bare_artifact_form_is_rejected(self, tmp_path, monkeypatch, capsys):
        """The pre-subcommand form (`repro-experiments table1`) is gone."""
        with pytest.raises(SystemExit) as exc:
            cli(["table1"], tmp_path, monkeypatch, capsys)
        assert exc.value.code == 2

    def test_scenario_flag_maps_to_param(self, tmp_path, monkeypatch, capsys):
        rc, out, _ = cli(
            ["run", "table4", "--iters", "3", "--scenario", "am-rtt"],
            tmp_path, monkeypatch, capsys,
        )
        assert rc == 0 and "AM base RTT" in out
        # only the requested scenario was measured; the rest render "-"
        unmeasured = [
            line for line in out.splitlines() if line.startswith("0-Word ")
        ]
        assert unmeasured
        for line in unmeasured:
            assert line.split("|")[1].strip() == "-"

    def test_scenario_rejected_uniformly_off_table4(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            cli(["run", "figure5", "--scenario", "am-rtt"], tmp_path, monkeypatch, capsys)

    def test_unknown_param_rejected(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            cli(["run", "scaling", "--param", "bogus=1"], tmp_path, monkeypatch, capsys)

    def test_rejects_unknown_artifact(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            cli(["run", "figure7"], tmp_path, monkeypatch, capsys)

    def test_list_shows_every_artifact_and_schema(self, tmp_path, monkeypatch, capsys):
        rc, out, _ = cli(["list"], tmp_path, monkeypatch, capsys)
        assert rc == 0
        for name in registry.ARTIFACT_NAMES:
            assert name in out
        assert "scenarios" in out and "drops" in out
        assert "cached" not in out  # every artifact is: the column is gone

    def test_out_dir_through_runner(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "report"
        rc, out, _ = cli(
            ["run", "table4", "--iters", "3", "--out", str(out_dir), "--no-cache"],
            tmp_path, monkeypatch, capsys,
        )
        assert rc == 0
        assert (out_dir / "table4.txt").exists()
        assert (out_dir / "table4.csv").exists()


class TestSweep:
    def test_grid_tasks_cartesian_order(self):
        spec = registry.get("faults")
        tasks = grid_tasks(
            spec, {"drops": [(0.0,), (0.1,)], "seeds": [(1,), (2,)]},
            {"iters": 2, "steps": 1},
        )
        labels = [t.label for t in tasks]
        assert labels == [
            "faults drops=0.0 seeds=1", "faults drops=0.0 seeds=2",
            "faults drops=0.1 seeds=1", "faults drops=0.1 seeds=2",
        ]
        assert all(t.params["iters"] == 2 for t in tasks)

    def test_grid_tasks_validates_points(self):
        with pytest.raises(Exception, match="no parameter"):
            grid_tasks(registry.get("scaling"), {"bogus": [1, 2]})

    def test_numeric_summary_flattens_pairs_and_skips_bools(self):
        payload = {
            "clean": 54.4,
            "cells": [[0.0, {"rtt": 60.0}], [0.1, {"rtt": 90.0}]],
            "ok": True,
            "name": "x",
        }
        summary = numeric_summary(payload)
        assert summary == {
            "clean": 54.4, "cells[0.0].rtt": 60.0, "cells[0.1].rtt": 90.0,
        }

    def test_sweep_cli_merged_csv(self, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "sweep.csv"
        rc, out, _ = cli(
            ["sweep", "scaling", "--param", "sizes=20,200",
             "--csv", str(csv_path), "--no-cache"],
            tmp_path, monkeypatch, capsys,
        )
        assert rc == 0
        assert "--- scaling sizes=20 ---" in out
        assert "--- scaling sizes=200 ---" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("sizes,")
        assert len(lines) == 3
        assert lines[1].startswith("20,") and lines[2].startswith("200,")

    def test_sweep_needs_an_axis(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            cli(["sweep", "scaling"], tmp_path, monkeypatch, capsys)

    def test_sweep_jobs_matches_serial(self, tmp_path, monkeypatch, capsys):
        argv = ["sweep", "scaling", "--param", "sizes=20,200", "--no-cache"]
        rc1, serial, _ = cli(argv, tmp_path, monkeypatch, capsys)
        rc2, parallel, _ = cli(argv + ["--jobs", "2"], tmp_path, monkeypatch, capsys)
        assert rc1 == rc2 == 0 and serial == parallel
