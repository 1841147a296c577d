"""The eight workloads: inputs from a seed, one fixed unit of work each,
and the checks that say the unit's outputs are right.

A workload is a closed loop with one client: the worker calls ``unit()``
again only when the previous call has returned.  Every layer is driven
through its public functions; nothing here reaches into ``src/`` internals
(the two ``congestion`` helpers excepted, which ``benchmarks/scenarios.py``
already uses the same way).

``repro`` is imported inside methods only: the runner imports this module
for the names and must stay able to run without ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

__all__ = ["UnitOutcome", "Workload", "WORKLOAD_CLASSES", "digest"]

#: this checkout's source tree, for the CLI subprocesses
SRC = Path(__file__).resolve().parent.parent / "src"


def _jsonable(obj: Any) -> Any:
    tobytes = getattr(obj, "tobytes", None)
    if tobytes is not None:  # numpy array or scalar: hash the exact bytes
        return "bytes:" + hashlib.sha256(tobytes()).hexdigest()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj: Any) -> str:
    """sha256 over a canonical rendering (floats by ``repr``, arrays by
    their bytes), so two values digest alike only when bit-identical."""
    text = json.dumps(obj, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(slots=True)
class UnitOutcome:
    """What one unit did."""

    items: int                      # work items completed
    stats: Any                      # simulated statistics, for the digest
    host_s: float | None = None     # the part of the unit that is the
                                    # workload's own work, when not all of it
    timings: dict[str, list[float]] = field(default_factory=dict)
    failed: int = 0                 # work items that failed
    keep: Any = None                # live results the verification pass needs


class Workload:
    """Base: ``setup`` → ``unit`` × N → ``verify`` → ``teardown`` →
    ``cleanup``.  The traced pass calls ``setup``/``teardown`` once more."""

    name = ""
    work_item = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    @classmethod
    def build(cls, out_dir: Path) -> None:
        """One-off preparation of a checkout (untimed, like a compile)."""

    def setup(self) -> None:
        pass

    def unit(self) -> UnitOutcome:
        raise NotImplementedError

    def traced_unit(self) -> UnitOutcome:
        """The unit as the traced pass runs it (in this process)."""
        return self.unit()

    def between_units(self) -> None:
        """Untimed reset so the next unit starts where this one did."""

    def verify(self, last: UnitOutcome) -> list[str]:
        """Independent checks on the last unit's results; returns failures."""
        return []

    def reported(self, outcomes: list[UnitOutcome]) -> dict[str, list[float]]:
        """Workload-specific end-to-end metrics, as one sample per unit (or
        a single sample).  The worker calibrates the ones registered in a
        time unit."""
        return {}

    def teardown(self) -> None:
        pass

    def per_layer(self, outcomes: list[UnitOutcome]) -> dict[str, float]:
        """Workload-specific per-layer timings from the untraced units
        (called after ``teardown``)."""
        return {}

    def traced_counts(self, traced: UnitOutcome) -> dict[str, float]:
        """Workload-specific exact counts of the traced unit (called after
        the traced pass's ``teardown``)."""
        return {}

    def cleanup(self) -> None:
        """Remove what the workload wrote (once, when the worker ends)."""


# --------------------------------------------------------------------------
# simulator workloads
# --------------------------------------------------------------------------


class MicroRmi(Workload):
    name = "micro_rmi"
    work_item = "one measured micro-benchmark iteration"
    ITERS = 100

    def unit(self) -> UnitOutcome:
        from repro.experiments import table4

        result = table4.run(iters=self.ITERS)
        rows = len(result.cc) + len(result.sc) + 2  # + raw AM and MPL
        return UnitOutcome(rows * self.ITERS, result.to_json(), keep=result)

    def verify(self, last: UnitOutcome) -> list[str]:
        from repro.experiments import paper

        t4 = last.keep
        bad = []
        if abs(t4.am_rtt_us - paper.AM_BASE_RTT_US) > 3.0:
            bad.append(f"AM base RTT {t4.am_rtt_us:.1f} us is off the paper's 55")
        if abs(t4.mpl_rtt_us - paper.MPL_RTT_US) > 4.0:
            bad.append(f"MPL RTT {t4.mpl_rtt_us:.1f} us is off the paper's 88")
        return bad


class PaperApps(Workload):
    name = "paper_apps"
    work_item = "one app run (12 per unit)"

    def setup(self) -> None:
        from repro.apps.em3d import Em3dGraph, Em3dParams
        from repro.apps.lu import LuParams, LuWorkload
        from repro.apps.water import WaterParams, WaterSystem

        self.graph = Em3dGraph(Em3dParams(
            n_nodes=160, degree=8, n_procs=4, pct_remote=0.4, seed=self.seed))
        self.water = WaterSystem(WaterParams(
            n_molecules=32, n_procs=4, seed=self.seed))
        self.lu = LuWorkload(LuParams(n=128, block=16, n_procs=4, seed=self.seed))

    def _runs(self):
        from repro.apps.em3d import run_ccpp_em3d, run_splitc_em3d
        from repro.apps.lu import run_ccpp_lu, run_splitc_lu
        from repro.apps.water import run_ccpp_water, run_splitc_water

        for version in ("base", "ghost", "bulk"):
            yield f"sc-em3d-{version}", lambda v=version: run_splitc_em3d(
                self.graph, steps=1, version=v)
            yield f"cc-em3d-{version}", lambda v=version: run_ccpp_em3d(
                self.graph, steps=1, version=v)
        for version in ("atomic", "prefetch"):
            yield f"sc-water-{version}", lambda v=version: run_splitc_water(
                self.water, version=v)
            yield f"cc-water-{version}", lambda v=version: run_ccpp_water(
                self.water, version=v)
        yield "sc-lu", lambda: run_splitc_lu(self.lu)
        yield "cc-lu", lambda: run_ccpp_lu(self.lu)

    def unit(self) -> UnitOutcome:
        results = {name: run() for name, run in self._runs()}
        stats = {
            name: {
                "elapsed_us": r.elapsed_us, "breakdown": r.breakdown,
                "counters": r.counters,
                "values": [getattr(r, f) for f in
                           ("values", "positions", "velocities", "potential", "packed")
                           if hasattr(r, f)],
            }
            for name, r in results.items()
        }
        return UnitOutcome(len(results), stats, keep=results)

    def verify(self, last: UnitOutcome) -> list[str]:
        import numpy as np

        from repro.apps.em3d import reference_steps
        from repro.apps.lu import check_factorization
        from repro.apps.water import reference_water
        from repro.experiments import scorecard

        bad = []
        em3d_ref = reference_steps(self.graph, 2)  # 1 warm-up + 1 measured step
        pos, vel, pot = reference_water(self.water, self.water.params.steps)
        for name, r in last.keep.items():
            if "em3d" in name:
                ok = np.allclose(r.values, em3d_ref)
            elif "water" in name:
                ok = (np.allclose(r.positions, pos) and np.allclose(r.velocities, vel)
                      and np.isclose(r.potential, pot))
            else:
                ok = check_factorization(self.lu, r.packed)
            if not ok:
                bad.append(f"{name} does not match its sequential reference")
        card = scorecard.run(quick=True, iters=30)
        self.claims_in_band_ratio = card.passed / len(card.checks)
        if not card.all_ok:
            bad.append(f"scorecard: {card.passed}/{len(card.checks)} claims in band")
        return bad

    def reported(self, outcomes):
        return {"claims_in_band_ratio": [self.claims_in_band_ratio]}


class Em3dScale(Workload):
    name = "em3d_scale"
    work_item = "one simulated edge update"
    TOPOLOGY = "fattree:arity=16,fatness=4"

    def setup(self) -> None:
        from repro.apps.em3d import Em3dGraph, Em3dParams

        self.graph = Em3dGraph(Em3dParams(
            n_nodes=2048, degree=4, n_procs=1024, pct_remote=0.25,
            chunked=True, seed=self.seed))

    def unit(self) -> UnitOutcome:
        from repro.apps.em3d import run_splitc_em3d

        r = run_splitc_em3d(self.graph, steps=1, version="bulk",
                            warmup_steps=0, topology=self.TOPOLOGY)
        stats = {"elapsed_us": r.elapsed_us, "breakdown": r.breakdown,
                 "counters": r.counters, "values": r.values}
        return UnitOutcome(self.graph.edge_terms_per_step, stats, keep=r)

    def verify(self, last: UnitOutcome) -> list[str]:
        import numpy as np

        from repro.apps.em3d import reference_steps

        if np.allclose(last.keep.values, reference_steps(self.graph, 1)):
            return []
        return ["1024-proc EM3D step does not match reference_steps"]


class FabricContention(Workload):
    name = "fabric_contention"
    work_item = "one injected packet"
    TOPOLOGIES = ("fattree:arity=8,fatness=2", "ring", "flat")
    PASSES = 4
    MSG_BYTES = 4096

    def setup(self) -> None:
        # The seed picks the victim and the injection order; the multiset
        # of (src, dst) pairs is the same for every seed, so the work is.
        rng = random.Random(self.seed)
        victim = rng.randrange(64)
        senders = [n for n in range(64) if n != victim]
        incast = []
        for _ in range(16):
            rng.shuffle(senders)
            incast += [(src, victim) for src in senders]
        alltoall = []
        for _ in range(4):
            shifts = list(range(1, 32))
            rng.shuffle(shifts)
            alltoall += [(src, (src + s) % 32) for s in shifts for src in range(32)]
        rotations = list(range(32))
        rng.shuffle(rotations)
        bisection = [
            pair
            for r in rotations
            for i in range(32)
            for pair in ((i, 32 + (i + r) % 32), (32 + (i + r) % 32, i))
        ]
        self.patterns = (("incast", 64, incast), ("alltoall", 32, alltoall),
                         ("bisection", 64, bisection))

    def unit(self) -> UnitOutcome:
        from repro.experiments.congestion import measure_pattern
        from repro.machine.costs import SP2_COSTS

        stats, packets = {}, 0
        for _ in range(self.PASSES):
            for topology in self.TOPOLOGIES:
                for name, nodes, pairs in self.patterns:
                    stats[f"{topology}/{name}"] = measure_pattern(
                        nodes, topology, pairs, self.MSG_BYTES, SP2_COSTS)
                    packets += len(pairs)
        return UnitOutcome(packets, stats, keep=stats)

    def verify(self, last: UnitOutcome) -> list[str]:
        from repro.machine.costs import SP2_COSTS

        # closed form on the crossbar: packets injected at t=0 never meet,
        # so the last one lands after one launch plus one serialization
        net = SP2_COSTS.net
        crossbar_us = net.wire_latency + self.MSG_BYTES * net.per_byte_bulk
        bad = []
        for name, _nodes, _pairs in self.patterns:
            flat_us = last.keep[f"flat/{name}"][0]
            if abs(flat_us - crossbar_us) > 1e-9:
                bad.append(f"flat/{name}: {flat_us} us, closed form {crossbar_us} us")
            for topology in self.TOPOLOGIES[:2]:
                elapsed, _mbps, util, _queued, _hot = last.keep[f"{topology}/{name}"]
                if elapsed < crossbar_us:
                    bad.append(f"{topology}/{name} beat the contention-free crossbar")
                if not 0.0 < util <= 1.0 + 1e-9:
                    bad.append(f"{topology}/{name}: link utilisation {util} out of (0, 1]")
        return bad


class OnesidedCollectives(Workload):
    name = "onesided_collectives"
    work_item = "one one-sided op or collective round"
    ITERS = 400
    PROCS = (4, 8, 16, 32, 64)
    THREADS = (1, 2, 4, 8, 16)
    RADICES = (2, 4)
    ROUNDS = 3  # collective rounds per cell of rma.run(quick=True)

    def unit(self) -> UnitOutcome:
        from repro.experiments import rma

        results, items = {}, 0
        for radix in self.RADICES:
            r = rma.run(iters=self.ITERS, procs=self.PROCS, threads=self.THREADS,
                        radix=radix, seed=self.seed)
            results[radix] = r
            items += (len(r.micro) * self.ITERS + 2 * self.ROUNDS * len(r.tree)
                      + sum(p.msgs for p in r.inject))
        stats = {str(k): r.to_json() for k, r in results.items()}
        return UnitOutcome(items, stats, keep=results)

    def verify(self, last: UnitOutcome) -> list[str]:
        bad = []
        for radix, r in last.keep.items():
            if not r.tree_matches():
                bad.append(f"radix {radix}: tree and linear collectives disagree")
            if not all(row.bitwise_ok for row in r.em3d):
                bad.append(f"radix {radix}: EM3D owner-push is not bitwise the reference")
        return bad


class Em3dObserved(Workload):
    name = "em3d_observed"
    work_item = "one simulated edge update"

    def setup(self) -> None:
        from repro.apps.em3d import Em3dGraph, Em3dParams

        self.graph = Em3dGraph(Em3dParams(
            n_nodes=160, degree=8, n_procs=4, pct_remote=1.0, seed=self.seed))
        self.trace_path = self.out_dir / f"perfetto_{os.getpid()}.json"

    def unit(self) -> UnitOutcome:
        from repro.apps.em3d import run_splitc_em3d
        from repro.obs import Metrics, SpanRecorder, write_chrome_trace

        t0 = time.perf_counter()
        tracer, metrics = SpanRecorder(maxlen=500_000), Metrics()
        observed = run_splitc_em3d(self.graph, steps=1, version="base",
                                   warmup_steps=0, tracer=tracer, metrics=metrics)
        write_chrome_trace(tracer, self.trace_path)
        t1 = time.perf_counter()
        plain = run_splitc_em3d(self.graph, steps=1, version="base", warmup_steps=0)
        t2 = time.perf_counter()
        samples = sum(h.count for h in metrics.histograms().values())
        stats = {
            "elapsed_us": observed.elapsed_us, "breakdown": observed.breakdown,
            "counters": observed.counters, "values": observed.values,
            "spans": len(tracer.spans), "metric_samples": samples,
        }
        return UnitOutcome(
            self.graph.edge_terms_per_step, stats, host_s=t1 - t0,
            timings={"observed_s": [t1 - t0], "untraced_s": [t2 - t1]},
            keep=(observed, plain),
        )

    def verify(self, last: UnitOutcome) -> list[str]:
        import numpy as np

        from repro.apps.em3d import reference_steps

        observed, plain = last.keep
        bad = []
        if digest([observed.elapsed_us, observed.breakdown, observed.values]) != digest(
                [plain.elapsed_us, plain.breakdown, plain.values]):
            bad.append("attaching the recorder changed the simulated results")
        if not np.allclose(observed.values, reference_steps(self.graph, 1)):
            bad.append("observed EM3D step does not match reference_steps")
        events = json.loads(self.trace_path.read_text(encoding="utf-8"))
        events = events.get("traceEvents", events) if isinstance(events, dict) else events
        if not events:
            bad.append("Perfetto export is empty")
        return bad

    def reported(self, outcomes):
        return {"obs_overhead_ratio": [
            o.timings["observed_s"][0] / o.timings["untraced_s"][0] for o in outcomes
        ]}

    def traced_counts(self, traced):
        return {"obs.spans": traced.stats["spans"],
                "obs.metric_samples": traced.stats["metric_samples"]}

    def cleanup(self) -> None:
        self.trace_path.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# host-side workloads
# --------------------------------------------------------------------------


class Orchestration(Workload):
    name = "orchestration"
    work_item = "one job"
    POINTS = 50

    def setup(self) -> None:
        from repro.experiments.cache import ResultCache
        from repro.service import ExperimentClient, ExperimentService
        from repro.service.server import ServiceConfig

        rng = random.Random(self.seed)
        self.sizes = rng.sample(range(16, 272), self.POINTS)
        self.root = self.out_dir / f"orch_{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        # a relative path keeps the unix socket under the 108-byte limit
        address = os.path.relpath(self.root / "d.sock")
        self.cache_dir = self.root / "cache"
        self.daemon_cache = ResultCache(self.cache_dir, version="perfbench")
        self.local_cache = ResultCache(self.cache_dir, version="perfbench")
        self.service = ExperimentService(
            address, config=ServiceConfig(workers=0), cache=self.daemon_cache)
        t0 = time.perf_counter()
        self.service.start()
        self.start_s = time.perf_counter() - t0
        self.stop_s = 0.0
        self.remote = ExperimentClient.connect(address)
        self.local = ExperimentClient.in_process(
            cache=self.local_cache, progress=lambda message: None)

    def _job(self, client, size: int, phase: str, timings: dict, payloads: list) -> int:
        """submit → stream to the terminal event → result; 1 if it failed."""
        t0 = time.perf_counter()
        job = client.submit("scaling", {"sizes": (size,)})
        t1 = time.perf_counter()
        first = last = None
        seqs = []
        for event in client.stream(job):
            if first is None:
                first = time.perf_counter()
            seqs.append(event.seq)
            last = event
        t2 = time.perf_counter()
        results = client.result(job)
        t3 = time.perf_counter()
        timings[f"{phase}_job_ms"].append((t3 - t0) * 1e3)
        if phase != "inproc":
            timings["submit_ms"].append((t1 - t0) * 1e3)
            timings["first_event_ms"].append(((first or t2) - t1) * 1e3)
            timings["result_ms"].append((t3 - t2) * 1e3)
        payloads.append([r.to_json() for r in results])
        ok = last is not None and last.kind == "job.done" and seqs == list(range(len(seqs)))
        return 0 if ok else 1

    def unit(self) -> UnitOutcome:
        timings: dict[str, list[float]] = {k: [] for k in (
            "cold_job_ms", "cached_job_ms", "inproc_job_ms",
            "submit_ms", "first_event_ms", "result_ms")}
        payloads: dict[str, list] = {"cold": [], "cached": [], "inproc": []}
        failed = 0
        for phase, client in (("cold", self.remote), ("cached", self.remote),
                              ("inproc", self.local)):
            for size in self.sizes:
                failed += self._job(client, size, phase, timings, payloads[phase])
        return UnitOutcome(3 * self.POINTS, payloads, timings=timings,
                           failed=failed, keep=payloads)

    def between_units(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)  # next unit is cold again

    def verify(self, last: UnitOutcome) -> list[str]:
        from repro.experiments import scaling

        bad = []
        cold, cached, inproc = (digest(last.keep[k]) for k in ("cold", "cached", "inproc"))
        if not cold == cached == inproc:
            bad.append("daemon, cached and in-process result bytes differ")
        direct = [[scaling.run(sizes=(size,)).to_json()] for size in self.sizes]
        if digest(direct) != cold:
            bad.append("daemon results differ from calling the experiment directly")
        return bad

    def reported(self, outcomes):
        return {"job_ms_p50": [
            median(o.timings["cold_job_ms"] + o.timings["cached_job_ms"]
                 + o.timings["inproc_job_ms"])
            for o in outcomes
        ]}

    def teardown(self) -> None:
        self.remote.close()
        self.local.close()
        t0 = time.perf_counter()
        self.service.stop(drain=True)
        self.stop_s = time.perf_counter() - t0

    def per_layer(self, outcomes):
        def pooled(key):
            return [v for o in outcomes for v in o.timings[key]]

        daemon_jobs = sorted(pooled("cold_job_ms") + pooled("cached_job_ms"))
        return {
            "experiments.inproc_job_ms_p50": median(pooled("inproc_job_ms")),
            "service.cold_job_ms_p50": median(pooled("cold_job_ms")),
            "service.cached_job_ms_p50": median(pooled("cached_job_ms")),
            "service.job_ms_p95": daemon_jobs[int(0.95 * (len(daemon_jobs) - 1))],
            "service.submit_ms_p50": median(pooled("submit_ms")),
            "service.first_event_ms_p50": median(pooled("first_event_ms")),
            "service.result_ms_p50": median(pooled("result_ms")),
            "service.start_s": self.start_s,
            "service.stop_s": self.stop_s,
            **self._cache_probe(),
        }

    def _cache_probe(self) -> dict[str, float]:
        """Time the cache's own load and store on the last unit's entries."""
        from repro.experiments import registry
        from repro.experiments.cache import ResultCache

        spec = registry.get("scaling")
        scratch = ResultCache(self.root / "probe-cache", version="perfbench")
        loads, stores = [], []
        for size in self.sizes:
            params = spec.validate({"sizes": (size,)})
            t0 = time.perf_counter()
            result = self.local_cache.load(spec, params)
            t1 = time.perf_counter()
            scratch.store(spec, params, result)
            t2 = time.perf_counter()
            loads.append((t1 - t0) * 1e6)
            stores.append((t2 - t1) * 1e6)
        return {"experiments.cache_load_us_p50": median(loads),
                "experiments.cache_store_us_p50": median(stores)}

    def traced_counts(self, traced):
        counts = self.service.stats()["counts"]
        return {"service.tasks_executed": counts["tasks_executed"],
                "service.dedup_hits": counts["dedup_hits"]}

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class CliCached(Workload):
    name = "cli_cached"
    work_item = "one `cli run all` on a warm cache"
    ARGS = ("run", "all", "--iters", "5")

    @staticmethod
    def _paths(out_dir: Path) -> tuple[Path, Path]:
        return out_dir / "cli-cache", out_dir / "cli-cache.filled.json"

    @classmethod
    def _command(cls, cache_dir: Path) -> list[str]:
        return [sys.executable, "-m", "repro.experiments.cli", *cls.ARGS,
                "--cache-dir", str(cache_dir)]

    @staticmethod
    def _env() -> dict[str, str]:
        return {**os.environ, "PYTHONPATH": str(SRC)}

    @classmethod
    def build(cls, out_dir: Path) -> None:
        """Fill the result cache once per checkout (a cold ``run all``).
        The marker is written last, so an interrupted fill is redone."""
        cache_dir, marker = cls._paths(out_dir)
        if marker.exists():
            return
        shutil.rmtree(cache_dir, ignore_errors=True)
        done = subprocess.run(cls._command(cache_dir), env=cls._env(),
                              capture_output=True, check=True, timeout=600)
        marker.write_text(json.dumps(
            {"stdout_sha256": hashlib.sha256(done.stdout).hexdigest()}),
            encoding="utf-8")

    def setup(self) -> None:
        self.cache_dir, marker = self._paths(self.out_dir)
        self.filled_sha = json.loads(marker.read_text(encoding="utf-8"))["stdout_sha256"]
        self.entries_before = self._entries()

    def _entries(self) -> list[str]:
        return sorted(str(p.relative_to(self.cache_dir))
                      for p in self.cache_dir.rglob("*.json"))

    def unit(self) -> UnitOutcome:
        t0 = time.perf_counter()
        done = subprocess.run(self._command(self.cache_dir), env=self._env(),
                              capture_output=True, timeout=170)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        sha = hashlib.sha256(done.stdout).hexdigest()
        return UnitOutcome(1, {"stdout_sha256": sha}, timings={"cli_ms": [elapsed_ms]},
                           failed=int(done.returncode != 0), keep=sha)

    def traced_unit(self) -> UnitOutcome:
        from repro.experiments import cli

        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([*self.ARGS, "--cache-dir", str(self.cache_dir)])
        sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
        return UnitOutcome(1, {"stdout_sha256": sha}, failed=int(bool(code)), keep=sha)

    def verify(self, last: UnitOutcome) -> list[str]:
        bad = []
        if last.keep != self.filled_sha:
            bad.append("warm `run all` stdout differs from the run that filled the cache")
        if self._entries() != self.entries_before:
            bad.append("a warm `run all` wrote to the result cache")
        return bad

    def reported(self, outcomes):
        return {"cli_cached_ms_p50": [o.timings["cli_ms"][0] for o in outcomes]}


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (MicroRmi, PaperApps, Em3dScale, FabricContention,
                OnesidedCollectives, Em3dObserved, Orchestration, CliCached)
}
