"""Integration: one path from a finished result to its files.

``run A <flags> --out DIR`` writes the job ``run A <flags>`` built — every
flag that shapes or routes the job applies to it — through the one
function that names a result's files (``report.outputs``); the report
directory of ``run all --iters 5`` is pinned file for file.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.experiments import registry, serde
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main
from repro.experiments.report import write_all
from repro.experiments.runner import JobQueue
from tests.integration.test_runner_parallel import cli
from tests.integration.test_service_daemon import start_daemon

FIXTURE = Path(__file__).parent.parent / "fixtures" / "run_all_iters5_out.sha256"
PAYLOADS = Path(__file__).parent.parent / "fixtures" / "run_all_iters5_payloads.sha256"

_ONE_BAR = ["--param", "pcts=1.0", "--param", "versions=ghost"]

#: artifact -> flags that the `--out` branch used to drop
CASES = {
    "scaling": ["--param", "sizes=20"],
    "congestion": ["--param", "nodes=16", "--param", "loads=1,2",
                   "--param", "topology=fattree:arity=4,fatness=1"],
    "table4": ["--iters", "5", "--scenario", "0-Word"],
    "figure5": ["--seed", "7", *_ONE_BAR],
}


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    service = start_daemon(tmp_path_factory.mktemp("out-daemon"), workers=0)
    yield service
    service.stop(drain=False)


def _printed_and_written(artifact, flags, tmp_path, monkeypatch, capsys):
    """(the section `run <artifact> <flags>` prints, the files the same
    command writes with ``--out``)."""
    argv = ["run", artifact, *flags]
    rc, printed, _ = cli(argv, tmp_path / "unused", monkeypatch, capsys)
    assert rc == 0
    out = tmp_path / "out"
    rc, wrote, _ = cli(argv + ["--out", str(out)], tmp_path / "unused", monkeypatch, capsys)
    assert rc == 0
    files = {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}
    assert wrote.splitlines() == [f"wrote {out / name}" for name in [
        *(n for n in (f"{artifact}.txt", f"{artifact}.csv") if n in files),
        "manifest.json",
    ]]
    header = f"=== {artifact} ===\n"
    assert printed.startswith(header) and printed.endswith("\n\n")
    return printed[len(header):-1], files


class TestOutWritesTheJobRunBuilt:
    @pytest.mark.parametrize("artifact", CASES)
    @pytest.mark.parametrize("backend", [["--no-cache"], ["--no-cache", "--jobs", "2"]],
                             ids=["serial", "jobs2"])
    def test_written_text_is_the_printed_section(
        self, artifact, backend, tmp_path, monkeypatch, capsys
    ):
        section, files = _printed_and_written(
            artifact, CASES[artifact] + backend, tmp_path, monkeypatch, capsys)
        assert files[f"{artifact}.txt"] == section

    @pytest.mark.parametrize("artifact", CASES)
    def test_daemon_executes_what_out_writes(
        self, artifact, daemon, tmp_path, monkeypatch, capsys
    ):
        before = daemon.stats()["counts"]
        section, files = _printed_and_written(
            artifact, [*CASES[artifact], "--daemon", daemon.address],
            tmp_path, monkeypatch, capsys)
        assert files[f"{artifact}.txt"] == section
        after = daemon.stats()["counts"]
        # both runs were the daemon's: one executed, the `--out` one read
        # from the daemon's cache; the client process ran nothing
        assert after["tasks_submitted"] - before["tasks_submitted"] == 2
        assert after["tasks_executed"] - before["tasks_executed"] == 1

    def test_param_reaches_the_files(self, tmp_path, monkeypatch, capsys):
        _, files = _printed_and_written(
            "scaling", [*CASES["scaling"], "--no-cache"], tmp_path, monkeypatch, capsys)
        rows = [ln for ln in files["scaling.txt"].splitlines() if "doubles (" in ln]
        assert len(rows) == 1 and rows[0].startswith("20 doubles")

    def test_scenario_reaches_the_files(self, tmp_path, monkeypatch, capsys):
        _, files = _printed_and_written(
            "table4", [*CASES["table4"], "--no-cache"], tmp_path, monkeypatch, capsys)
        header, *rows = files["table4.csv"].splitlines()
        assert header.startswith("benchmark,language,")
        assert [r.split(",")[:2] for r in rows] == [["0-Word", "ccpp"]]

    def test_seed_reaches_the_files(self, tmp_path, monkeypatch, capsys):
        by_seed = [
            _printed_and_written(
                "figure5", ["--seed", seed, *_ONE_BAR, "--no-cache"],
                tmp_path / seed, monkeypatch, capsys)[1]["figure5.csv"]
            for seed in ("7", "1997")
        ]
        assert by_seed[0] != by_seed[1]


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    """`run all --iters 5 --out DIR` on a cold cache; yields (DIR, cache dir)."""
    root = tmp_path_factory.mktemp("run-all-out")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["run", "all", "--iters", "5", "--out", str(root / "out"),
                   "--cache-dir", str(root / "cache")])
    assert rc == 0  # 36/36 claims, 25/25 plans, tree = linear
    return root / "out", root / "cache"


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestReportDirectory:
    def test_every_file_equals_the_parents(self, report_dir):
        """sha256 of every file `run all --iters 5 --no-cache --out DIR`
        wrote on the commit before `--out` stopped rebuilding its job
        (``manifest.json`` apart: timestamps and a pid).  The change added
        ``chaos.csv`` and moved nothing.  ``scorecard.txt`` was pinned again
        when the scorecard began grading the run's own results: its
        bulk-copy row is now taken at the run's largest transfer."""
        out, _ = report_dir
        pinned = dict(
            reversed(line.split()) for line in FIXTURE.read_text().splitlines()
        )
        written = {p.name for p in out.iterdir()}
        assert written == {*pinned, "chaos.csv", "manifest.json"}
        # Table 1 counts this repository's own source lines: like the
        # stdout pin, the file pins start after it
        moved = {name for name in pinned
                 if name != "table1.txt" and _sha(out / name) != pinned[name]}
        assert moved == set()
        assert all((out / name).read_bytes().endswith(b"\n") for name in written)

    def test_every_payload_equals_the_parents(self, report_dir):
        """sha256 of ``json.dumps(envelope["result"])`` of every cache
        entry the run stored, generated before the result types' JSON was
        derived from their fields: it sees field order and map encoding,
        which the cache's own sorted-key sha does not.  Table 1's payload
        counts this repository's source lines, so it is held to re-encoding
        byte for byte instead, as every payload is."""
        _, cache_dir = report_dir
        pinned = dict(
            reversed(line.split()) for line in PAYLOADS.read_text().splitlines()
        )
        assert list(pinned) == list(registry.ARTIFACT_NAMES)
        moved = set()
        for name in registry.ARTIFACT_NAMES:
            (entry,) = (cache_dir / name).glob("*.json")
            payload = json.loads(entry.read_text(encoding="utf-8"))["result"]
            text = json.dumps(payload)
            assert json.dumps(registry.get(name).result_from_json(payload).to_json()) == text
            if name != "table1" and hashlib.sha256(text.encode()).hexdigest() != pinned[name]:
                moved.add(name)
        assert moved == set()

    def test_warm_run_reuses_the_payloads_it_read(self, report_dir, monkeypatch):
        """A warm ``run all`` hands each job the payload the cache read: no
        result is encoded again, and what it reuses is the encoding."""
        _, cache_dir = report_dir
        to_json = serde.Codec.to_json
        encoded = []
        monkeypatch.setattr(
            serde.Codec, "to_json", lambda self: encoded.append(self) or to_json(self)
        )
        finish = JobQueue._finish_task_locked
        reused = {}

        def spy(queue, job, ts, result, payload, source):
            reused[ts.task.spec.name] = source, result, payload
            return finish(queue, job, ts, result, payload, source)

        monkeypatch.setattr(JobQueue, "_finish_task_locked", spy)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(["run", "all", "--iters", "5", "--cache-dir", str(cache_dir)])
        assert rc == 0
        assert encoded == []
        assert sorted(reused) == sorted(registry.ARTIFACT_NAMES)
        pinned = dict(
            reversed(line.split()) for line in PAYLOADS.read_text().splitlines()
        )
        for name, (source, result, payload) in reused.items():
            assert source == "cache", name
            assert payload == to_json(result), name
            text = json.dumps(payload)
            if name != "table1":
                assert hashlib.sha256(text.encode()).hexdigest() == pinned[name], name

    def test_write_all_covers_every_registered_artifact(self, report_dir, tmp_path):
        """`write_all(d)` names no artifacts of its own: it is the
        registry's list, so it is the directory `run all --out` writes."""
        out, cache_dir = report_dir
        cache = ResultCache(cache_dir)
        paths = write_all(tmp_path, iters=5, cache=cache)
        assert (cache.hits, cache.stores) == (len(registry.ARTIFACT_NAMES), 0)
        assert {p.name for p in paths} == {p.name for p in out.iterdir()}
        for name in registry.ARTIFACT_NAMES:
            assert (tmp_path / f"{registry.get(name).file_stem}.txt").exists(), name
        for path in paths:
            if path.name != "manifest.json":
                assert path.read_bytes() == (out / path.name).read_bytes()
