"""Integration: the experiment daemon end-to-end over a unix socket.

The acceptance checks of the service layer:

* two **concurrent clients** submitting overlapping sweeps each get
  output byte-identical to the in-process (serial) client, while the
  overlapping cell executes exactly once (visible in the cache/dedup
  counters);
* the CLI ``--daemon`` path prints byte-identical stdout to the local
  path;
* a drain (what SIGINT triggers) finishes queued work, every stream
  still ends with its terminal event, and the worker pool is reaped;
* the wire is keep-alive: one connection per client whatever the number
  of verbs, a lease per exchange (a verb during a suspended stream or
  from a second thread never interleaves lines), one reconnect when the
  daemon restarted, handler threads joined by ``stop()``;
* a bad request line is answered and the connection serves the next.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.cache import ResultCache
from repro.experiments.serde import JobEvent
from repro.experiments.sweep import job_sweep_csv, render_points
from repro.service import ExperimentClient, ExperimentService, protocol
from repro.service.protocol import ProtocolError
from repro.service.server import ServiceConfig


def start_daemon(root, *, workers, address=None):
    cache = ResultCache(root / "cache", version="e2e")
    service = ExperimentService(
        address or str(root / "svc.sock"),
        config=ServiceConfig(workers=workers), cache=cache,
    )
    return service.start()


@pytest.fixture
def daemon(tmp_path):
    service = start_daemon(tmp_path, workers=2)
    yield service.address, service
    if not service._stopped:
        service.stop(drain=False)


@pytest.fixture
def inline_daemon(tmp_path):
    """Tasks run in the scheduler thread: no spawn pool to wait for."""
    service = start_daemon(tmp_path, workers=0)
    yield service.address, service
    if not service._stopped:
        service.stop(drain=False)


def svc_threads():
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("svc-"))


def eventually(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def raw_connection(address):
    return protocol.connect(address, timeout=10.0)


def exchange(conn, line: bytes, stream: bool = False) -> list:
    """Send one raw request line and read its whole answer: one line, or
    for an acknowledged ``stream`` every line up to the terminal event."""
    conn._sock.sendall(line + b"\n")
    answer = [conn.recv()]
    while stream and answer[0].get("ok") and not (
        "event" in answer[-1] and JobEvent.from_json(answer[-1]["event"]).terminal
    ):
        answer.append(conn.recv())
    return answer


def assert_one_dense_terminal_log(events):
    assert [e.seq for e in events] == list(range(len(events)))
    assert [e.terminal for e in events] == [False] * (len(events) - 1) + [True]


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
                with ExperimentClient.connect(address, client=name) as client:
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
        local = ExperimentClient.in_process(progress=lambda m: None)
        for name, sizes in sweeps.items():
            record, events, results = outputs[name]
            ljob = local.submit("scaling", None, axes=sizes_axes(sizes))
            lrec = local.status(ljob)
            lres = local.result(ljob)
            assert render_points(record.labels, results) == \
                render_points(lrec.labels, lres)
            assert job_sweep_csv(sizes_axes(sizes), record) == \
                job_sweep_csv(sizes_axes(sizes), lrec)
            # the stream is complete and ends with the terminal summary
            assert events[0].kind == "job.queued"
            assert events[-1].kind == "job.done"
            assert [e.seq for e in events] == list(range(len(events)))

        # the overlapping cell ran exactly once: 3 distinct cells, 4
        # submitted tasks, and the fourth resolved via cache or dedup
        with ExperimentClient.connect(address) as client:
            counts = client.stats()["counts"]
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

    def test_run_is_one_connection_and_three_requests(
        self, inline_daemon, tmp_path, monkeypatch, capsys
    ):
        from tests.integration.test_runner_parallel import cli

        address, service = inline_daemon
        rc, out, _ = cli(
            ["run", "scaling", "--param", "sizes=20", "--daemon", address],
            tmp_path / "cc", monkeypatch, capsys,
        )
        assert rc == 0 and out.startswith("=== scaling ===")
        counts = service.stats()["counts"]
        # submit, stream, result: the record `result` fetched also answers
        # the `status` that labels the output
        assert (counts["connections"], counts["requests"]) == (1, 3)
        assert eventually(lambda: not service._conns)  # and the CLI closed it

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
            client.submit("scaling", {"sizes": (20,)})
        # ... and the daemon then stops with the pool reaped and the
        # handler of the connection this client still holds open joined
        waiter = threading.Thread(target=service.serve_forever)
        waiter.start()
        waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert service._stopped and service._pool is None
        assert svc_threads() == [] and not service._conns
        client.close()

    def test_unknown_job_surfaces_as_protocol_error(self, daemon):
        address, _ = daemon
        with ExperimentClient.connect(address) as client:
            with pytest.raises(ProtocolError, match="unknown job"):
                client.status("j9999")
            assert client.stats()["counts"]["connections"] == 1  # an error is an answer


def run_job(client, sizes=(20,)):
    """submit -> stream to the terminal event -> result."""
    job = client.submit("scaling", {"sizes": tuple(sizes)})
    events = list(client.stream(job))
    assert_one_dense_terminal_log(events)
    return job, events, client.result(job)


class TestKeepAlive:
    def test_fifty_jobs_ride_one_connection(self, inline_daemon):
        address, service = inline_daemon
        with ExperimentClient.connect(address) as client:
            for _ in range(50):
                _, events, results = run_job(client)
                assert events[-1].kind == "job.done" and len(results) == 1
            stats = service.stats()
        assert stats["counts"]["connections"] == 1
        assert stats["counts"]["requests"] == 150
        assert stats["gauges"]["svc.open_connections"] == 1.0
        assert eventually(lambda: not service._conns)  # close() released the socket

    def test_tcp_connections_are_nodelay_on_both_ends(self, tmp_path):
        import socket

        service = start_daemon(tmp_path, workers=0, address="127.0.0.1:0")
        try:
            port = service._listener.getsockname()[1]
            with ExperimentClient.connect(f"127.0.0.1:{port}") as client:
                run_job(client)
                run_job(client)
                ends = [client._backend._idle, *service._conns]
                assert len(ends) == 2
                for conn in ends:
                    assert conn._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            assert service.stats()["counts"]["connections"] == 1
        finally:
            service.stop()
        assert svc_threads() == []

    def test_verb_during_a_suspended_stream_gets_its_own_connection(self, inline_daemon):
        address, service = inline_daemon
        client = ExperimentClient.connect(address)
        job = client.submit("scaling", None, axes=sizes_axes([20, 200, 2000]))
        stream = client.stream(job)
        events = [next(stream)]  # suspended mid-answer: its connection is leased
        assert client.status(job).job_id == job
        assert [r.job_id for r in client.list_jobs()] == [job]
        events += stream
        assert_one_dense_terminal_log(events)
        assert client.status(job).state == "done"
        assert len(client.result(job)) == 3
        # the stream's connection and one temporary; the idle one is reused
        assert service.stats()["counts"]["connections"] == 2
        assert eventually(lambda: len(service._conns) == 1)
        client.close()

    def test_two_threads_share_a_client_without_interleaving(self, inline_daemon):
        address, service = inline_daemon
        client = ExperimentClient.connect(address)
        errors: list = []

        def worker(size):
            try:
                for _ in range(15):
                    job, events, results = run_job(client, (size,))
                    assert {e.job_id for e in events} == {job}
                    record = client.status(job)
                    assert record.job_id == job and record.params[0]["sizes"] == [size]
                    assert results[0].to_json() == record.results[0]
            except Exception as exc:  # pragma: no cover - the test's point
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in (20, 24, 28)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # whatever was opened under contention was a temporary: one is kept
        assert eventually(lambda: len(service._conns) == 1)
        # submit, stream, result — and a status whenever another thread's
        # record had replaced this job's as the last terminal one
        assert 3 * 45 <= service.stats()["counts"]["requests"] <= 4 * 45
        client.close()

    def test_abandoned_stream_does_not_poison_the_next_verb(self, inline_daemon):
        address, service = inline_daemon
        client = ExperimentClient.connect(address)
        job = client.submit("scaling", None, axes=sizes_axes([20, 200, 2000]))
        stream = client.stream(job)
        assert next(stream).kind == "job.queued"
        stream.close()  # the rest of the answer is still on that connection
        assert client._backend._idle is None  # ... so it was closed, not kept
        assert client.status(job).job_id == job
        assert len(client.result(job)) == 3
        assert_one_dense_terminal_log(list(client.stream(job)))
        client.close()

    def test_restarted_daemon_is_one_reconnect_and_a_gone_one_is_an_error(self, tmp_path):
        service = start_daemon(tmp_path, workers=0)
        client = ExperimentClient.connect(service.address)
        run_job(client)
        service.stop()
        service = start_daemon(tmp_path, workers=0)
        try:
            # same client object, no error — and the new daemon's j0001 is
            # not answered from the old one's record
            job, events, results = run_job(client, (24,))
            assert job == "j0001" and events[-1].kind == "job.done"
            assert client.status(job).params[0]["sizes"] == [24]
            assert results[0].to_json()["points"][0]["words"] == 24
            assert service.stats()["counts"]["connections"] == 1
        finally:
            service.stop()
        with pytest.raises(ProtocolError, match="cannot reach an experiment daemon"):
            client.stats()
        client.close()

    def test_stop_joins_idle_connections(self, inline_daemon):
        address, service = inline_daemon
        clients = [ExperimentClient.connect(address) for _ in range(3)]
        for client in clients:
            client.stats()
        assert len(service._conns) == 3
        assert [n for n in svc_threads() if n.startswith("svc-conn-")] == [
            "svc-conn-1", "svc-conn-2", "svc-conn-3"]
        t0 = time.monotonic()
        service.stop()
        assert time.monotonic() - t0 < 1.0
        assert svc_threads() == [] and not service._conns
        for client in clients:
            client.close()

    def test_dropped_client_mid_stream_leaves_no_handler(self, inline_daemon):
        address, service = inline_daemon
        conn = raw_connection(address)
        submit = {"op": "submit", "client": "dropper", "tasks": [
            {"artifact": "scaling", "params": {"sizes": [s]}, "label": f"s{s}"}
            for s in (20, 200, 2000, 20000)
        ]}
        [answer] = exchange(conn, json.dumps(submit).encode())
        job = answer["job_id"]
        conn.send({"op": "stream", "job_id": job})
        assert conn.recv() == {"ok": True, "job_id": job}
        conn.close()  # mid-answer
        assert service.wait(job, timeout=60).state == "done"
        assert eventually(lambda: not service._conns)
        assert [n for n in svc_threads() if n.startswith("svc-conn-")] == []
        assert_one_dense_terminal_log(service.events(job))


BAD_LINES = {
    "truncated json": b'{"op": "ping"',
    "not utf-8": b'\xff\xfe{"op": "ping"}',
    "not an object": b"[1,2,3]",
    "blank": b"",
    "no job_id": b'{"op":"status"}',
    "unknown op": b'{"op":"frobnicate"}',
    "no op": b'{"job_id":"j0001"}',
    "from_seq not an integer": b'{"op":"stream","job_id":"j0001","from_seq":"x"}',
    "priority not an integer": b'{"op":"submit","priority":1.5,"tasks":[{"artifact":"scaling"}]}',
    "task not an object": b'{"op":"submit","tasks":["scaling"]}',
    "job_id not a string": b'{"op":"result","job_id":7}',
    "timeout not a number": b'{"op":"result","job_id":"j0001","timeout":"soon"}',
    "deeply nested": b"[" * 200_000,
}


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
class TestBadLines:
    def test_each_is_answered_and_the_connection_serves_the_next(
        self, inline_daemon, capfd
    ):
        address, service = inline_daemon
        conn = raw_connection(address)
        [first] = exchange(conn, b'{"op":"ping"}')
        assert first["ok"] is True
        for name, line in BAD_LINES.items():
            [answer] = exchange(conn, line)
            assert answer["ok"] is False and answer["error"], name
            assert exchange(conn, b'{"op":"ping"}') == [first], name
        counts = service.stats()["counts"]
        assert counts["connections"] == 1
        assert counts["requests"] == 1 + 2 * len(BAD_LINES)
        conn.close()
        service.stop()
        assert capfd.readouterr().err == ""

    def test_oversized_request_is_answered_then_closed(self, inline_daemon, capfd):
        address, service = inline_daemon
        conn = raw_connection(address)
        conn._sock.sendall(b"x" * (protocol.MAX_REQUEST + 1))
        answer = conn.recv()
        assert answer["ok"] is False and "longer than" in answer["error"]
        try:
            assert conn.recv() is None  # framing is lost: the daemon hung up
        except ConnectionError:
            pass  # ... which a peer with unread bytes may see as a reset
        conn.close()
        assert eventually(lambda: not service._conns)
        with ExperimentClient.connect(address) as client:  # the daemon is fine
            assert client.stats()["counts"]["connections"] == 2
        service.stop()
        assert capfd.readouterr().err == ""


@pytest.fixture(scope="module")
def settled_daemon(tmp_path_factory):
    """A daemon whose jobs are all terminal: every read-only verb has one
    answer however often, and over whatever connection, it is asked."""
    service = start_daemon(tmp_path_factory.mktemp("settled"), workers=0)
    with ExperimentClient.connect(service.address, client="fixture") as client:
        done, _, _ = run_job(client)
        swept = client.submit("scaling", None, axes=sizes_axes([20, 200]))
        client.wait(swept)
    yield service.address, [done, swept, "j9999"]
    service.stop()


def _verbs():
    job = st.sampled_from([0, 1, 2])
    seq = st.integers(min_value=0, max_value=12)
    return st.one_of(
        st.sampled_from(sorted(BAD_LINES)).map(lambda name: ("raw", name)),
        st.sampled_from(["ping", "list-jobs", "submit"]).map(lambda op: (op,)),
        st.tuples(st.sampled_from(["status", "result", "cancel"]), job),
        st.tuples(st.sampled_from(["poll", "stream"]), job, seq),
    )


class TestOneConnectionEqualsOneShot:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_verbs(), min_size=1, max_size=12))
    def test_same_answers(self, settled_daemon, verbs):
        address, jobs = settled_daemon

        def line(verb):
            if verb[0] == "raw":
                return BAD_LINES[verb[1]]
            # (a submit of this is refused at the boundary: nothing is queued)
            req = {"op": verb[0], "tasks": [{"artifact": "no-such-artifact"}]}
            if len(verb) > 1:
                req["job_id"] = jobs[verb[1]]
            if len(verb) > 2:
                req["from_seq"] = verb[2]
            return json.dumps(req).encode()

        def one_shot(verb):
            conn = raw_connection(address)
            try:
                return exchange(conn, line(verb), stream=verb[0] == "stream")
            finally:
                conn.close()

        kept = raw_connection(address)
        try:
            for verb in verbs:
                answer = exchange(kept, line(verb), stream=verb[0] == "stream")
                assert answer == one_shot(verb), verb
                if verb[0] == "stream" and answer[0]["ok"]:
                    assert JobEvent.from_json(answer[-1]["event"]).terminal
        finally:
            kept.close()


class TestServeProcess:
    def test_sigint_drains_with_a_keep_alive_client_attached(self, tmp_path):
        address = str(tmp_path / "serve.sock")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve", "--address",
             address, "--workers", "0", "--cache-dir", str(tmp_path / "cache")],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        def listening():
            try:
                protocol.connect(address).close()
            except ProtocolError:
                return False
            return True

        try:
            assert eventually(listening, timeout=30)
            client = ExperimentClient.connect(address)
            run_job(client)
            conn = raw_connection(address)
            assert exchange(conn, b'{"op": "ping"')[0]["ok"] is False
            assert exchange(conn, b'{"op":"ping"}')[0]["ok"] is True
            serve.send_signal(signal.SIGINT)  # both connections are open and idle
            _, err = serve.communicate(timeout=30)
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.communicate()
        assert serve.returncode == 0
        assert "drained; all workers reaped" in err
        assert "Traceback" not in err
        assert conn.recv() is None  # the daemon closed its end
        conn.close()
        client.close()
        assert not os.path.exists(address)
