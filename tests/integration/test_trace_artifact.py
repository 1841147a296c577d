"""Integration: the ``trace`` artifact is plain data like the other 13.

Its result carries the Perfetto export as text, so it is cached, survives
the daemon's wire and a damaged cache entry the way every result does —
and ``run trace --out x.json`` is a normal run that then writes the text.
"""

import hashlib
import json

import pytest

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.report import outputs
from repro.experiments.results import TraceCaptureResult
from repro.service import ExperimentClient
from tests.integration.test_obs_determinism import QUICK_TRACE_SHA256
from tests.integration.test_runner_parallel import cli


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_trace(cache: ResultCache):
    """One ``trace`` job through the in-process client; returns (result,
    its job's events)."""
    client = ExperimentClient.in_process(cache=cache, progress=lambda line: None)
    job = client.submit("trace")
    (result,) = client.result(job)
    return result, client.events(job)


@pytest.fixture
def filled(tmp_path):
    """(cache, the entry's path, the result) after one cold run."""
    cache = ResultCache(tmp_path / "cache")
    result, _ = _run_trace(cache)
    spec = registry.get("trace")
    return cache, cache.path(spec, spec.validate()), result


def _rewrite(path, edit) -> None:
    """Apply ``edit`` to the stored payload and re-seal the envelope, so
    only the payload's shape is wrong, not its hash."""
    envelope = json.loads(path.read_text(encoding="utf-8"))
    edit(envelope["result"])
    envelope["sha256"] = ResultCache._result_sha(envelope["result"])
    path.write_text(json.dumps(envelope), encoding="utf-8")


class TestPlainData:
    def test_round_trip_renders_and_writes_the_same_bytes(self, filled):
        _, _, result = filled
        back = TraceCaptureResult.from_json(json.loads(json.dumps(result.to_json())))
        assert back == result
        assert back.render() == result.render()
        files = outputs(registry.get("trace"), back)
        assert list(files) == ["trace_summary.txt", "trace.json"]
        assert hashlib.sha256(files["trace.json"].encode()).hexdigest() == QUICK_TRACE_SHA256
        assert not {"tracer", "metrics"} & set(result.to_json())

    def test_row_summary_is_numbers_only(self, filled):
        cache, _, result = filled
        _, events = _run_trace(cache)
        assert [e.kind for e in events if e.kind.startswith("task.")] == [
            "task.cached", "task.finished",
        ]
        (row,) = [e for e in events if e.kind == "row"]
        summary = row.data["summary"]
        assert summary["spans"] == result.spans
        assert summary["spans_by_name.am.handle"] == result.spans_by_name["am.handle"]
        assert all(type(v) is float for v in summary.values())
        assert "perfetto_json" not in summary


class TestDamagedEntry:
    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],           # truncated
        lambda text: text.replace("am.short#0 ", "am.short#7 ", 1),  # edited
    ])
    def test_damaged_export_is_recomputed_and_rewritten(self, filled, damage):
        cache, path, result = filled
        good = path.read_bytes()
        envelope = json.loads(good)
        envelope["result"]["perfetto_json"] = damage(envelope["result"]["perfetto_json"])
        path.write_text(json.dumps(envelope), encoding="utf-8")

        again, events = _run_trace(cache)
        assert (cache.integrity_failures, cache.hits, cache.stores) == (1, 0, 2)
        assert "task.started" in [e.kind for e in events]  # recomputed, not served
        assert again == result and again.render() == result.render()
        assert path.read_bytes() == good

    @pytest.mark.parametrize("edit", [
        lambda payload: payload.pop("spans_by_name"),            # an older shape
        lambda payload: payload.update(flow_arrows=12),          # a later one
    ])
    def test_other_shape_of_the_result_is_a_miss(self, filled, edit):
        cache, path, result = filled
        _rewrite(path, edit)
        spec = registry.get("trace")
        assert cache.load(spec, spec.validate()) is None  # no traceback
        assert (cache.integrity_failures, cache.misses) == (0, 2)  # the fill's, this one
        again, _ = _run_trace(cache)  # and the next run fills it again
        assert again == result
        assert cache.load(spec, spec.validate()) == result


class TestCli:
    def test_trace_out_file_is_a_normal_run(self, tmp_path, monkeypatch, capsys):
        """Cache, --refresh, --no-cache and --jobs apply to `run trace
        --out x.json` as to any run; the file is the pinned one each time."""
        cache_dir, out = tmp_path / "cache", tmp_path / "x.json"
        argv = ["run", "trace", "--out", str(out), "--cache-dir", str(cache_dir)]
        seen = []
        for extra in ([], [], ["--refresh", "--jobs", "2"], ["--no-cache"]):
            out.unlink(missing_ok=True)
            rc, stdout, err = cli(argv + extra, tmp_path / "unused", monkeypatch, capsys)
            assert rc == 0 and stdout.endswith(f"wrote {out}\n")
            assert _sha(out) == QUICK_TRACE_SHA256
            seen.append((stdout, "[trace] cache hit" in err, "[trace] running" in err))
        assert len({stdout for stdout, _, _ in seen}) == 1
        assert [(hit, ran) for _, hit, ran in seen] == [
            (False, True), (True, False), (False, True), (False, True),
        ]
        assert len(list(cache_dir.rglob("*.json"))) == 1
        assert not (tmp_path / "unused").exists()
