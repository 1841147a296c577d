"""Split-C EM3D against committed golden outputs.

``tests/fixtures/em3d_golden.json`` holds, for six small runs (80 nodes,
degree 5, 4 procs, every neighbour remote), everything a run commits to:
elapsed virtual time, per-category breakdown, counter totals, the
computed values and — for the traced case — the full application trace.
Floats are stored as ``float.hex`` and arrays/traces as sha256, so the
comparison is bit for bit.  The file was generated from the reference
path before the batched execution tier was deleted (both tiers produced
it), which makes it an oracle that does not share the code under test.

A change that moves virtual time *on purpose* regenerates the file with
``PYTHONPATH=src python tests/integration/test_em3d_golden.py`` and says
so in CHANGES.md.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.apps.em3d import Em3dGraph, Em3dParams, run_splitc_em3d
from repro.machine.faults import FaultPlan
from repro.sim.trace import RecordingTracer

GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" / "em3d_golden.json"


def _lossy_plan() -> FaultPlan:
    return (
        FaultPlan(seed=11)
        .delay("am.", rate=0.2, delay_us=40.0, jitter_us=10.0)
        .duplicate("am.short", rate=0.05)
    )


#: case name -> builder of the keyword arguments of :func:`run_splitc_em3d`
#: (built per run: a tracer or a fault plan carries state)
CASES = {
    "base": lambda: dict(steps=2, version="base"),
    "ghost": lambda: dict(steps=2, version="ghost"),
    "bulk": lambda: dict(steps=2, version="bulk"),
    "base-traced": lambda: dict(
        steps=2, version="base", warmup_steps=0, tracer=RecordingTracer()
    ),
    "base-reliable": lambda: dict(steps=1, version="base", reliable=True),
    "base-faults": lambda: dict(steps=1, version="base", faults=_lossy_plan()),
}


def snapshot(case: str) -> dict:
    """Run one case and reduce it to the JSON-able form the file stores."""
    kwargs = CASES[case]()
    graph = Em3dGraph(Em3dParams(n_nodes=80, degree=5, n_procs=4, pct_remote=1.0))
    result = run_splitc_em3d(graph, **kwargs)
    snap = {
        "elapsed_us": result.elapsed_us.hex(),
        "breakdown": {k: v.hex() for k, v in sorted(result.breakdown.items())},
        "counters": dict(sorted(result.counters.items())),
        "values_sha256": hashlib.sha256(result.values.tobytes()).hexdigest(),
    }
    tracer = kwargs.get("tracer")
    if tracer is not None:
        # packet ids are normalised away, as the golden-trace suite does
        stream = "".join(
            f"{r.time.hex()}\t{r.node}\t{r.kind}\t{re.sub(r'#[0-9]+', '#', str(r.detail))}\n"
            for r in tracer.records
        )
        snap["records"] = len(tracer.records)
        snap["records_sha256"] = hashlib.sha256(stream.encode()).hexdigest()
    return snap


@pytest.mark.parametrize("case", list(CASES))
def test_em3d_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())[case]
    snap = snapshot(case)
    # decoded so a mismatch reads in microseconds, compared exactly
    assert float.fromhex(snap["elapsed_us"]) == float.fromhex(golden["elapsed_us"])
    assert {k: float.fromhex(v) for k, v in snap["breakdown"].items()} == {
        k: float.fromhex(v) for k, v in golden["breakdown"].items()
    }
    assert snap == golden


def test_golden_trace_is_not_trivial():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(CASES)
    assert golden["base-traced"]["records"] > 1000


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({case: snapshot(case) for case in CASES}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
