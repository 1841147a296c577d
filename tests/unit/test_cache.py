"""Unit: the content-addressed result cache — hit/miss/invalidation,
concurrent-writer safety, integrity re-hash, and size-capped LRU GC."""

import dataclasses
import json
import os
import threading
import types
import typing
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.cache import ResultCache, default_cache_root
from repro.experiments.scaling import ScalingPoint, ScalingResult
from repro.experiments.table4 import Table4Result


@pytest.fixture
def spec():
    return registry.get("scaling")


@pytest.fixture
def result():
    return ScalingResult(points=[ScalingPoint(20, 74.8, 206.8)])


class TestAddressing:
    def test_key_is_stable_and_param_sensitive(self, spec):
        c = ResultCache("/tmp/unused", version="1")
        k1 = c.key(spec, {"sizes": (20,)})
        assert k1 == c.key(spec, {"sizes": (20,)})
        assert k1 != c.key(spec, {"sizes": (20, 200)})

    def test_key_ignores_param_order_and_tuple_vs_list(self, spec):
        c = ResultCache("/tmp/unused", version="1")
        faults = registry.get("faults")
        assert c.key(faults, {"iters": 5, "drops": (0.0,)}) == c.key(
            faults, {"drops": [0.0], "iters": 5}
        )

    def test_key_depends_on_version_and_spec(self, spec):
        params = {"sizes": (20,)}
        assert ResultCache("/tmp/x", version="1").key(spec, params) != ResultCache(
            "/tmp/x", version="2"
        ).key(spec, params)
        c = ResultCache("/tmp/x", version="1")
        assert c.key(spec, {}) != c.key(registry.get("table1"), {})

    def test_one_package_version_everywhere(self, tmp_path):
        """The cache key's version, ``repro.__version__`` and the
        distribution's version are one value: pyproject takes it from
        ``repro._version`` instead of carrying a literal of its own (the
        literal once said 1.0.0 while the source said 1.1.0, so an
        installed checkout never saw the 1.1.0 cache invalidation)."""
        tomllib = pytest.importorskip("tomllib")
        import repro
        from repro import _version

        root = Path(__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as fh:
            meta = tomllib.load(fh)
        assert "version" not in meta["project"]
        assert meta["project"]["dynamic"] == ["version"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro._version.__version__"
        }
        assert ResultCache(tmp_path).version == repro.__version__ == _version.__version__

    def test_default_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        assert default_cache_root() == tmp_path / "cc"


class TestLoadStore:
    def test_miss_then_hit_round_trips(self, tmp_path, spec, result):
        c = ResultCache(tmp_path)
        params = spec.validate({"sizes": (20,)})
        assert c.load(spec, params) is None
        path = c.store(spec, params, result)
        assert path is not None and path.exists()
        back = c.load(spec, params)
        assert back == result
        assert (c.hits, c.misses, c.stores) == (1, 1, 1)

    def test_params_change_is_a_miss(self, tmp_path, spec, result):
        c = ResultCache(tmp_path)
        c.store(spec, {"sizes": (20,)}, result)
        assert c.load(spec, {"sizes": (200,)}) is None

    def test_version_change_is_a_miss(self, tmp_path, spec, result):
        ResultCache(tmp_path, version="1.0").store(spec, {"sizes": (20,)}, result)
        assert ResultCache(tmp_path, version="1.1").load(spec, {"sizes": (20,)}) is None
        assert ResultCache(tmp_path, version="1.0").load(spec, {"sizes": (20,)}) == result

    def test_corrupt_file_is_a_miss(self, tmp_path, spec, result):
        c = ResultCache(tmp_path)
        path = c.store(spec, {"sizes": (20,)}, result)
        path.write_text("{not json", encoding="utf-8")
        assert c.load(spec, {"sizes": (20,)}) is None

    def test_envelope_is_readable_json_with_provenance(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="9.9")
        path = c.store(spec, spec.validate({"sizes": (20,)}), result)
        envelope = json.loads(path.read_text())
        assert envelope["spec"] == "scaling"
        assert envelope["version"] == "9.9"
        assert envelope["params"]["sizes"] == [20]
        assert ScalingResult.from_json(envelope["result"]) == result

    def test_table4_envelope_round_trips_none_fields(self, tmp_path):
        spec = registry.get("table4")
        c = ResultCache(tmp_path)
        result = Table4Result(am_rtt_us=54.4, mpl_rtt_us=None)
        c.store(spec, spec.validate(), result)
        assert c.load(spec, spec.validate()) == result


def _emptiest(hint):
    """A value of ``hint`` with nothing measured: zeros, empty containers."""
    if dataclasses.is_dataclass(hint):
        return hint(**{n: _emptiest(h) for n, h in typing.get_type_hints(hint).items()})
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return None
    return (typing.get_origin(hint) or hint)()


def _wrong_container(payload):
    """The payload with its first container field swapped for the other kind."""
    name = next(n for n, v in payload.items() if isinstance(v, (dict, list)))
    return {**payload, name: [] if isinstance(payload[name], dict) else {}}


class TestWrongShapedPayload:
    @pytest.mark.parametrize("artifact", registry.ARTIFACT_NAMES)
    @pytest.mark.parametrize("reshape", [lambda payload: [payload], _wrong_container],
                             ids=["payload-in-a-list", "field-in-the-wrong-container"])
    def test_is_a_miss(self, tmp_path, artifact, reshape):
        """A sealed envelope (its sha256 matches) whose result does not fit
        the result type's hints is a miss, never a crash of the run."""
        spec = registry.get(artifact)
        c = ResultCache(tmp_path, version="1")
        params = spec.validate()
        path = c.store(spec, params, _emptiest(spec.result_class()))
        envelope = json.loads(path.read_text())
        envelope["result"] = reshape(envelope["result"])
        envelope["sha256"] = ResultCache._result_sha(envelope["result"])
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert c.load(spec, params) is None
        assert (c.misses, c.integrity_failures) == (1, 0)


class TestConcurrentWriters:
    def test_temp_names_are_unique_per_call(self, tmp_path, spec):
        c = ResultCache(tmp_path, version="1")
        target = c.path(spec, {"sizes": (20,)})
        t1, t2 = ResultCache._tmp_path(target), ResultCache._tmp_path(target)
        # the regression: a shared "<key>.tmp" let two writers of the
        # same key interleave partial JSON before the rename
        assert t1 != t2
        assert t1.parent == t2.parent == target.parent
        assert str(os.getpid()) in t1.name

    def test_hammering_one_key_never_corrupts_it(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="1")
        params = spec.validate({"sizes": (20,)})
        n_threads, n_rounds = 8, 12
        barrier = threading.Barrier(n_threads)
        failures = []

        def writer():
            try:
                barrier.wait()
                for _ in range(n_rounds):
                    c.store(spec, params, result)
                    loaded = ResultCache(tmp_path, version="1").load(spec, params)
                    if loaded is not None and loaded != result:
                        failures.append(loaded)
            except Exception as exc:  # pragma: no cover - the test's point
                failures.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert c.load(spec, params) == result
        assert not list(tmp_path.glob("*/*.tmp"))  # every temp was renamed


class TestIntegrity:
    def test_tampered_payload_is_a_miss_and_is_deleted(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="1")
        params = spec.validate({"sizes": (20,)})
        path = c.store(spec, params, result)
        envelope = json.loads(path.read_text())
        envelope["result"]["points"][0]["sc_us"] = 999.0  # bit-rot
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert c.load(spec, params) is None
        assert c.integrity_failures == 1
        assert not path.exists()  # the bad envelope is gone
        # and a fresh store repairs the entry
        c.store(spec, params, result)
        assert c.load(spec, params) == result

    def test_pre_integrity_envelope_still_loads(self, tmp_path, spec, result):
        """Envelopes without a sha256 field (older writers) stay valid."""
        c = ResultCache(tmp_path, version="1")
        params = spec.validate({"sizes": (20,)})
        path = c.store(spec, params, result)
        envelope = json.loads(path.read_text())
        del envelope["sha256"]
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert c.load(spec, params) == result
        assert c.integrity_failures == 0


class TestGC:
    def _fill(self, cache, spec, result, sizes):
        paths = {}
        for i, size in enumerate(sizes):
            params = spec.validate({"sizes": (size,)})
            path = cache.store(spec, params, result)
            # deterministic, well-separated LRU clock
            os.utime(path, (1000.0 + i, 1000.0 + i))
            paths[size] = path
        return paths

    def test_noop_under_cap(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="1")
        self._fill(c, spec, result, [20, 200])
        report = c.gc(max_bytes=c.size_bytes())
        assert report.evicted == 0
        assert report.scanned == 2
        assert report.bytes_after == report.bytes_before

    def test_evicts_oldest_first_until_under_cap(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="1")
        paths = self._fill(c, spec, result, [20, 200, 2000])
        one_size = paths[20].stat().st_size
        report = c.gc(max_bytes=c.size_bytes() - 1)  # force evicting one
        assert report.evicted == 1
        assert report.evicted_paths == [paths[20]]  # oldest mtime
        assert not paths[20].exists() and paths[200].exists()
        assert report.bytes_before - report.bytes_after == one_size

    def test_hit_refreshes_the_lru_clock(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="1")
        paths = self._fill(c, spec, result, [20, 200])
        # a hit on the older entry makes the other one the eviction victim
        assert c.load(spec, spec.validate({"sizes": (20,)})) == result
        report = c.gc(max_bytes=c.size_bytes() - 1)
        assert report.evicted_paths == [paths[200]]
        assert paths[20].exists()

    def test_gc_sweeps_stale_temp_files(self, tmp_path, spec, result):
        c = ResultCache(tmp_path, version="1")
        self._fill(c, spec, result, [20])
        stale = tmp_path / "scaling" / "deadbeef.12345.0.tmp"
        stale.write_text("{half an envel", encoding="utf-8")
        report = c.gc(max_bytes=10**9)
        assert not stale.exists()
        assert report.evicted == 0  # real envelopes untouched
