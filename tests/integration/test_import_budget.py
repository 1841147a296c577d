"""Integration: module-scope imports follow the work.

What a start pays for is what it imports, so these tests pin the import
*graph* — which packages a given CLI invocation may load — not a time.
Each scenario runs in a fresh interpreter and reports ``sys.modules``;
the lazy package ``__init__`` files (PEP 562) are checked in-process.
"""

import hashlib
import importlib
import json
import subprocess
import sys
import textwrap

import pytest

from tests.integration.test_obs_determinism import QUICK_TRACE_SHA256

SIMULATOR = (
    "repro.sim", "repro.threads", "repro.machine", "repro.am", "repro.ccpp",
    "repro.splitc", "repro.rma", "repro.apps",
)
#: what no fully cached run may load: the simulator, the recorders and the
#: exporter that computed the results, the pool and the daemon
NOT_ON_A_WARM_RUN = (
    "numpy", "scipy", *SIMULATOR, "repro.marshal", "repro.ft", "repro.mpl",
    "repro.nexus", "repro.obs.spans", "repro.obs.perfetto", "multiprocessing",
    "repro.service.server",
)
#: ``len(sys.modules)`` after a warm run in an interpreter started without
#: its start-up hooks (``_fresh(..., hook_free=True)``): on CPython 3.11.7 a
#: warm ``run all`` loads 143, a warm ``run figure6`` and a warm ``run trace
#: --out`` 130 each; the slack is for other versions
WARM_MODULE_BUDGET = 160


def _fresh(
    body: str, tmp_path, *argv: str, hook_free: bool = False
) -> tuple[set[str], str]:
    """Run ``body`` in a fresh interpreter; returns (sys.modules, stdout).

    ``hook_free`` starts it as an interpreter with no start-up hooks starts,
    so that ``sys.modules`` holds CPython's own start-up and what the body
    loads, whatever ``.pth`` files the interpreter's ``site-packages`` holds:
    ``-S`` runs no ``.pth`` file and no ``sitecustomize`` (``-I`` still runs
    ``.pth`` files), and the child puts ``site-packages`` on ``sys.path``
    itself.
    """
    report = tmp_path / "modules.json"
    script = textwrap.dedent(body) + textwrap.dedent("""
        import json, sys
        with open(sys.argv[1], "w") as fh:
            json.dump(sorted(sys.modules), fh)
    """)
    flags = []
    if hook_free:
        flags = ["-S"]
        script = "import site, sys; sys.path.extend(site.getsitepackages())\n" + script
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, str(report), *argv],
        check=True, capture_output=True, text=True, timeout=300,
    )
    return set(json.loads(report.read_text())), done.stdout


def _loaded(modules: set[str], *packages: str) -> list[str]:
    """The modules of ``packages`` (a package or anything below it)."""
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    )


_CLI = """
    import sys
    from repro.experiments import cli
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:  # --help
        code = exc.code
    assert not code, code
"""


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A result cache filled by a cold ``run all --iters 5 --jobs 2`` in a
    fresh interpreter; yields (cache dir, that run's stdout)."""
    root = tmp_path_factory.mktemp("import-budget")
    cache = root / "cache"
    _, stdout = _fresh(
        _CLI, root, "run", "all", "--iters", "5", "--jobs", "2",
        "--cache-dir", str(cache),
    )
    return cache, stdout


class TestColdStart:
    def test_importing_the_cli_loads_no_numpy(self, tmp_path):
        modules, _ = _fresh("import repro.experiments.cli", tmp_path)
        assert _loaded(modules, "numpy", "scipy", *SIMULATOR) == []

    @pytest.mark.parametrize("argv", [("list",), ("--help",), ("run", "--help")])
    def test_list_and_help_load_no_numpy_and_no_simulator(self, tmp_path, argv):
        modules, stdout = _fresh(_CLI, tmp_path, *argv)
        assert stdout
        assert _loaded(modules, "numpy", "scipy", *SIMULATOR) == []
        assert _loaded(modules, "multiprocessing", "repro.service.server") == []


class TestWarmRun:
    def test_cached_artifact_loads_no_simulator(self, warm_cache, tmp_path):
        cache, _ = warm_cache
        modules, stdout = _fresh(
            _CLI, tmp_path, "run", "figure6", "--cache-dir", str(cache)
        )
        assert stdout.startswith("=== figure6 ===")
        assert _loaded(modules, *NOT_ON_A_WARM_RUN) == []

    def test_warm_run_all_loads_no_simulator(self, warm_cache, tmp_path):
        cache, cold_stdout = warm_cache
        entries = sorted(p.name for p in cache.rglob("*.json"))
        modules, stdout = _fresh(
            _CLI, tmp_path, "run", "all", "--iters", "5", "--cache-dir", str(cache),
            hook_free=True,
        )
        # all 14 artifacts are cache hits: nothing is simulated, so a warm
        # `run all` loads what a warm `run <artifact>` loads
        assert _loaded(modules, *NOT_ON_A_WARM_RUN) == []
        assert len(modules) < WARM_MODULE_BUDGET
        # serial-from-cache output == the --jobs 2 run that computed it
        assert stdout == cold_stdout
        assert sorted(p.name for p in cache.rglob("*.json")) == entries

    def test_warm_trace_file_is_written_from_the_cache(self, warm_cache, tmp_path):
        """``run trace --out x.json`` is a normal run: on a warm cache the
        Perfetto file is the stored text, no recorder and no exporter."""
        cache, _ = warm_cache
        out = tmp_path / "x.json"
        modules, stdout = _fresh(
            _CLI, tmp_path, "run", "trace", "--out", str(out), "--cache-dir", str(cache),
            hook_free=True,
        )
        assert stdout.startswith("=== trace ===") and f"wrote {out}" in stdout
        assert _loaded(modules, *NOT_ON_A_WARM_RUN) == []
        assert len(modules) < WARM_MODULE_BUDGET
        assert hashlib.sha256(out.read_bytes()).hexdigest() == QUICK_TRACE_SHA256


LAZY_PACKAGES = (
    "repro.experiments", "repro.apps.em3d", "repro.apps.water", "repro.apps.lu",
    "repro.service", "repro.obs", "repro.util",
)


class TestLazyPackages:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_public_name_resolves_and_is_listed(self, name):
        package = importlib.import_module(name)
        assert package.__all__
        listed = dir(package)
        for public in package.__all__:
            assert getattr(package, public) is not None
            assert public in listed
        # a resolved name is cached: the next access skips __getattr__
        assert set(package.__all__) <= set(vars(package))

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_attribute_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {name} import no_such_name")

    def test_a_name_imports_only_its_own_module(self, tmp_path):
        modules, _ = _fresh(
            "from repro.apps.em3d import Em3dGraph, Em3dParams", tmp_path
        )
        assert "repro.apps.em3d.graph" in modules
        assert _loaded(modules, "repro.ccpp", "repro.splitc", "repro.machine") == []


def test_lu_runs_without_scipy(tmp_path):
    """Blocked LU's panel solves run on ``numpy.linalg``: a Split-C and a
    CC++ factorization in one fresh interpreter load no ``scipy`` module,
    and both are still right."""
    modules, _ = _fresh(
        """
        from repro.apps.lu import (
            LuParams, LuWorkload, check_factorization, run_ccpp_lu, run_splitc_lu,
        )

        work = LuWorkload(LuParams(n=64, block=16, n_procs=4))
        for run in (run_splitc_lu, run_ccpp_lu):
            assert check_factorization(work, run(work).packed)
        """,
        tmp_path,
    )
    assert "repro.ccpp" in modules
    assert sorted(m for m in modules if m.startswith("scipy")) == []
