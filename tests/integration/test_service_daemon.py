"""Integration: the experiment daemon end-to-end over a unix socket.

The acceptance checks of the service layer:

* two **concurrent clients** submitting overlapping sweeps each get
  output byte-identical to the in-process (serial) client, while the
  overlapping cell executes exactly once (visible in the cache/dedup
  counters);
* the CLI ``--daemon`` path prints byte-identical stdout to the local
  path;
* a drain (what SIGINT triggers) finishes queued work, every stream
  still ends with its terminal event, and the worker pool is reaped.
"""

import threading

import pytest

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.sweep import job_sweep_csv, render_points
from repro.service import ExperimentClient, ExperimentService
from repro.service.protocol import ProtocolError
from repro.service.server import ServiceConfig


@pytest.fixture
def daemon(tmp_path):
    address = str(tmp_path / "svc.sock")
    cache = ResultCache(tmp_path / "cache", version="e2e")
    service = ExperimentService(
        address, config=ServiceConfig(workers=2), cache=cache
    )
    service.start()
    yield address, service
    if not service._stopped:
        service.stop(drain=False)


def sizes_axes(sizes):
    return {"sizes": [(s,) for s in sizes]}


class TestConcurrentClients:
    def test_overlapping_sweeps_identical_to_serial_with_dedup(self, daemon):
        address, service = daemon
        sweeps = {"alice": [20, 200], "bob": [200, 2000]}  # 200 overlaps
        outputs: dict = {}
        errors: list = []

        def run_client(name, sizes):
            try:
                client = ExperimentClient.connect(address, client=name)
                job = client.submit(
                    "scaling", None, axes=sizes_axes(sizes)
                )
                events = list(client.stream(job))
                outputs[name] = (
                    client.status(job), events, client.result(job)
                )
            except Exception as exc:  # pragma: no cover - the test's point
                errors.append((name, exc))

        threads = [
            threading.Thread(target=run_client, args=(n, s))
            for n, s in sweeps.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert set(outputs) == set(sweeps)

        # byte-identity: each client's render + CSV equals the serial
        # in-process client's for the same grid
        spec = registry.get("scaling")
        local = ExperimentClient.in_process(progress=lambda m: None)
        for name, sizes in sweeps.items():
            record, events, results = outputs[name]
            ljob = local.submit("scaling", None, axes=sizes_axes(sizes))
            lrec = local.status(ljob)
            lres = local.result(ljob)
            assert render_points(spec, record.labels, results) == \
                render_points(spec, lrec.labels, lres)
            assert job_sweep_csv(sizes_axes(sizes), record) == \
                job_sweep_csv(sizes_axes(sizes), lrec)
            # the stream is complete and ends with the terminal summary
            assert events[0].kind == "job.queued"
            assert events[-1].kind == "job.done"
            assert [e.seq for e in events] == list(range(len(events)))

        # the overlapping cell ran exactly once: 3 distinct cells, 4
        # submitted tasks, and the fourth resolved via cache or dedup
        stats = ExperimentClient.connect(address).stats()
        counts = stats["counts"]
        assert counts["tasks_submitted"] == 4
        assert counts["tasks_executed"] == 3
        assert counts["cache_hits"] + counts["dedup_hits"] == 1
        hits = sum(outputs[n][0].cache_hits + outputs[n][0].dedup_hits
                   for n in outputs)
        assert hits == 1


class TestCliDaemonPath:
    def test_run_and_sweep_stdout_byte_identical(
        self, daemon, tmp_path, monkeypatch, capsys
    ):
        from tests.integration.test_runner_parallel import cli

        address, _ = daemon
        for argv in (
            ["run", "scaling", "--param", "sizes=20,200"],
            ["sweep", "scaling", "--axis", "sizes=20,200"],
            ["run", "trace", "--out", str(tmp_path / "trace.json")],
        ):
            rc1, local_out, _ = cli(
                argv + ["--no-cache"], tmp_path / "cc", monkeypatch, capsys
            )
            rc2, daemon_out, err = cli(
                argv + ["--daemon", address], tmp_path / "cc", monkeypatch, capsys
            )
            assert rc1 == rc2 == 0
            assert daemon_out == local_out
            assert "job.done" in err  # progress went to stderr

    def test_submit_stream_status_verbs(
        self, daemon, tmp_path, monkeypatch, capsys
    ):
        import json

        from tests.integration.test_runner_parallel import cli

        address, _ = daemon
        rc, out, _ = cli(
            ["submit", "scaling", "--param", "sizes=20",
             "--daemon", address],
            tmp_path / "cc", monkeypatch, capsys,
        )
        assert rc == 0
        job_id = out.strip()
        rc, out, _ = cli(
            ["stream", job_id, "--daemon", address],
            tmp_path / "cc", monkeypatch, capsys,
        )
        assert rc == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[0]["kind"] == "job.queued"
        assert lines[-1]["kind"] == "job.done"
        rc, out, _ = cli(
            ["status", job_id, "--daemon", address],
            tmp_path / "cc", monkeypatch, capsys,
        )
        assert rc == 0
        assert json.loads(out)["state"] == "done"
        rc, out, _ = cli(
            ["list-jobs", "--daemon", address],
            tmp_path / "cc", monkeypatch, capsys,
        )
        assert rc == 0 and job_id in out


class TestDrain:
    def test_drain_finishes_work_ends_streams_reaps_workers(self, daemon):
        address, service = daemon
        client = ExperimentClient.connect(address)
        job = client.submit("scaling", {"sizes": (20, 200)})
        service.request_drain()  # what the first SIGINT does
        # the queued job still runs to completion with a terminal event
        events = list(client.stream(job))
        assert events[-1].kind == "job.done"
        # new submissions are rejected while draining
        with pytest.raises(ProtocolError, match="draining"):
            ExperimentClient.connect(address).submit(
                "scaling", {"sizes": (20,)}
            )
        # ... and the daemon then stops with the pool reaped
        waiter = threading.Thread(target=service.serve_forever)
        waiter.start()
        waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert service._stopped and service._pool is None

    def test_unknown_job_surfaces_as_protocol_error(self, daemon):
        address, _ = daemon
        client = ExperimentClient.connect(address)
        with pytest.raises(ProtocolError, match="unknown job"):
            client.status("j9999")
