"""The six simulator workloads of ``perfbench`` against committed digests.

``tests/fixtures/perfbench_digests.json`` holds, per workload and seed,
``workloads.digest(unit().stats)`` — the ``sim_digest`` the benchmark
prints: every simulated statistic of one unit (elapsed virtual time,
breakdowns, counters, computed values), sha256 over a bit-exact
rendering.  The file was generated at the commit before the engine lost
its zero-delay lane and split run loops, so it is a reference the
surviving engine does not share code with.  The workload classes are
imported read-only from ``perfbench/workloads.py``; the digests do not
depend on ``PYTHONHASHSEED``.

A change that moves virtual time *on purpose* regenerates the file with
``PYTHONPATH=src python tests/integration/test_perfbench_digests.py`` and
says so in CHANGES.md.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = ROOT / "tests" / "fixtures" / "perfbench_digests.json"

WORKLOADS = ("micro_rmi", "paper_apps", "em3d_scale", "fabric_contention",
             "onesided_collectives", "em3d_observed")
SEEDS = (1997, 2026)


def _workloads_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def unit_digest(module, name: str, seed: int, out_dir: Path) -> str:
    wl = module.WORKLOAD_CLASSES[name](seed, out_dir)  # out_dir: a temp dir
    wl.setup()
    return module.digest(wl.unit().stats)


@pytest.fixture(scope="module")
def workloads_module():
    return _workloads_module()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_unit_matches_committed_digest(workloads_module, name, seed, tmp_path):
    golden = json.loads(DIGESTS.read_text())
    assert unit_digest(workloads_module, name, seed, tmp_path) == golden[name][str(seed)]


if __name__ == "__main__":
    import tempfile

    module = _workloads_module()
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            name: {str(seed): unit_digest(module, name, seed, Path(tmp)) for seed in SEEDS}
            for name in WORKLOADS
        }
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {DIGESTS}")
