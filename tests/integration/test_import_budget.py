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

    def test_grading_a_filled_cache_loads_no_simulator(self, warm_cache, tmp_path):
        """``scorecard.grade`` over the decoded results of its inputs is
        the scorecard the run printed, without the runtimes that computed
        them."""
        cache, cold_stdout = warm_cache
        modules, stdout = _fresh("""
            import sys
            from repro.experiments import registry, scorecard
            from repro.experiments.cache import ResultCache

            cache = ResultCache(sys.argv[2])
            spec = registry.get("scorecard")
            inputs = spec.input_tasks(spec.validate({"iters": 5}))
            print(scorecard.grade(*(cache.load(s, p) for s, p in inputs)).render())
        """, tmp_path, str(cache), hook_free=True)
        assert "36/36 claims" in stdout
        assert f"=== scorecard ===\n{stdout}\n" in cold_stdout
        assert _loaded(modules, *NOT_ON_A_WARM_RUN) == []

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


#: CI's "Congestion smoke" parameters
CONGESTION_SMOKE = (
    "--param", "nodes=16", "--param", "topology=fattree:arity=4,fatness=1",
    "--param", "loads=1,2,4,8",
)


class TestSimulatorCore:
    """NumPy loads with the first layer that holds an array, and that layer
    is the apps: the engine, the threads, every fabric, AM, MPL, marshal
    and both language runtimes (whose regions are ``array`` words) run
    without it."""

    def test_fabric_and_am_run_without_numpy(self, tmp_path):
        modules, stdout = _fresh(
            """
            import sys
            import repro.am, repro.machine, repro.mpl, repro.sim, repro.threads
            from repro.am import install_am
            from repro.experiments.congestion import _alltoall_pairs, measure_pattern
            from repro.machine.cluster import Cluster
            from repro.machine.costs import SP2_COSTS

            pairs = _alltoall_pairs(8, 2)
            for topology in (None, "ring", "fattree:arity=4,fatness=1"):
                elapsed, mbps, *_ = measure_pattern(8, topology, pairs, 4096, SP2_COSTS)
                assert elapsed > 0 and mbps > 0

            cluster = Cluster(2)
            eps = install_am(cluster)
            got = []

            def echo(ep, src, frame):
                yield from ep.send_short(src, "ack", nbytes=12)

            def ack(ep, src, frame):
                got.append(src)
                return
                yield

            for ep in eps:
                ep.register_handler("echo", echo)
                ep.register_handler("ack", ack)

            def server(node):
                while True:
                    yield from node.service("am").wait_and_poll()

            def client(node):
                ep = node.service("am")
                yield from ep.send_short(1, "echo", nbytes=16)
                yield from ep.poll_until(lambda: got)

            cluster.launch(1, server(cluster.nodes[1]), daemon=True)
            cluster.launch(0, client(cluster.nodes[0]))
            cluster.run()
            assert got == [1] and cluster.sim.now > 0
            print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))

            from repro.machine.faults import FaultPlan

            FaultPlan(seed=7).drop("am.", rate=0.1)
            """,
            tmp_path,
        )
        # nothing up to the round trip loaded NumPy ...
        assert stdout.strip() == "[]"
        assert "repro.marshal.pool" in modules
        assert _loaded(modules, "repro.marshal.packer", "repro.marshal.serialize") == []
        # ... and a fault plan does: its decisions come from a numpy Generator
        assert "numpy" in modules

    @pytest.mark.parametrize("argv", [
        ("run", "congestion", *CONGESTION_SMOKE, "--no-cache"),
        ("run", "table1", "--no-cache"),
        ("run", "table4", "--iters", "5", "--no-cache"),
        ("run", "scaling", "--param", "sizes=20,200", "--no-cache"),
    ], ids=["congestion", "table1", "table4", "scaling"])
    def test_cold_run_loads_no_numpy(self, tmp_path, argv):
        modules, stdout = _fresh(_CLI, tmp_path, *argv)
        assert stdout.startswith(f"=== {argv[1]} ===")
        assert _loaded(modules, "numpy", "scipy") == []

    def test_cold_app_run_loads_numpy_and_no_scipy(self, tmp_path):
        """The apps are the layer that holds arrays: Figure 6 (Water and
        LU) loads NumPy, and still no SciPy."""
        modules, stdout = _fresh(_CLI, tmp_path, "run", "figure6", "--no-cache")
        assert stdout.startswith("=== figure6 ===")
        assert "numpy" in modules
        assert _loaded(modules, "scipy") == []

    def test_language_runtimes_move_words_without_numpy(self, tmp_path):
        """Split-C's read / write / store / bulk_read / bulk_write and a
        CC++ RMI carrying an ARRAYOFDOUBLE, remote and local, with no
        ``numpy`` module loaded before, during or after."""
        modules, stdout = _fresh(
            """
            import sys
            from array import array
            from repro.ccpp import CCppRuntime, WaitMode
            from repro.experiments.microbench import ArrayOfDouble, CCBench
            from repro.machine.cluster import Cluster
            from repro.splitc import SplitCRuntime

            rt = SplitCRuntime(Cluster(2))
            for nid in range(2):
                rt.memory(nid).alloc("x", 8)
            block = array("d", [0.5, -0.0, float("inf"), 2.0])
            got = {}

            def program(proc):
                if proc.my_node == 0:
                    for dest in (1, 0):
                        yield from proc.write(proc.gptr(dest, "x", 0), 7.0)
                        got[("read", dest)] = yield from proc.read(proc.gptr(dest, "x", 0))
                        yield from proc.store(proc.gptr(dest, "x", 1), 9.0)
                        yield from proc.bulk_write(proc.gptr(dest, "x", 4), block)
                        got[("bulk", dest)] = yield from proc.bulk_read(
                            proc.gptr(dest, "x", 0), 8)
                else:
                    yield from proc.await_stores(1)
                yield from proc.barrier()

            rt.run_spmd(program)
            want = array("d", [7.0, 9.0, 0.0, 0.0]) + block
            for dest in (1, 0):
                assert got[("read", dest)] == 7.0
                assert got[("bulk", dest)] == want, got[("bulk", dest)]

            cc = CCppRuntime(Cluster(2))

            def main(ctx):
                gp = yield from ctx.create(1, CCBench)
                yield from ctx.rmi(gp, "put", ArrayOfDouble(array("d", range(20))),
                                   wait=WaitMode.PARK)
                back = yield from ctx.rmi(gp, "get", wait=WaitMode.PARK)
                got["cc"] = back.values

            cc.launch(0, main, "words")
            cc.run()
            assert got["cc"] == array("d", range(20)), got["cc"]
            print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
            """,
            tmp_path,
        )
        assert stdout.strip() == "[]"
        assert _loaded(modules, "repro.splitc", "repro.ccpp", "repro.marshal.serialize") != []
        assert _loaded(modules, "numpy", "scipy") == []

    def test_task_rng_is_seeded_after_its_module_loads_numpy(self, tmp_path):
        """A task whose module imports NumPy at module scope draws the same
        global-RNG value on every execution, the first one included (the
        runner seeds ``numpy.random`` after resolving the entry)."""
        (tmp_path / "np_task.py").write_text(
            "import numpy as np\n\n\ndef draw():\n    return np.random.random()\n"
        )
        _, stdout = _fresh(
            f"""
            import json, sys
            sys.path.insert(0, {str(tmp_path)!r})
            from repro.experiments.runner import _execute

            assert "numpy" not in sys.modules
            print(json.dumps([_execute("np_task", "draw", {{}}, 1234) for _ in range(2)]))
            """,
            tmp_path,
        )
        first, second = json.loads(stdout)
        assert first == second


LAZY_PACKAGES = (
    "repro.experiments", "repro.apps.em3d", "repro.apps.water", "repro.apps.lu",
    "repro.service", "repro.obs", "repro.util", "repro.marshal",
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
