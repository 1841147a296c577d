"""The names the benchmark speaks in: workloads, metrics, units, bounds.

One place, read by the runner, the worker, ``compare.py`` and the tests;
``BENCHMARK.json`` must list exactly what is registered here (the harness
test checks it).  Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from layers import LAYERS, OTHER

__all__ = [
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "REPORTED",
    "PER_LAYER",
    "PROBES",
    "DEFAULT_SEED",
    "RUN_SECONDS",
    "NOISE_UNRESOLVED_PCT",
    "THREADED_WORKLOADS",
    "benchmark_json",
    "quartiles",
]

DEFAULT_SEED = 1997
#: seconds of timed units per workload run (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 12
#: a run whose calibrated unit ratios spread wider than this (IQR, % of the
#: median) is reported "unresolved"
NOISE_UNRESOLVED_PCT = 10.0
#: workloads whose unit runs on several threads: how often an idle loop
#: wakes depends on timing, so their ``<layer>.calls`` are not exact
THREADED_WORKLOADS = ("orchestration",)


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them; a
    single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


@dataclass(frozen=True, slots=True)
class Metric:
    name: str
    unit: str
    better: str                      # "higher" | "lower"
    bound: float | None = None       # share of the median it may worsen by
    workloads: tuple[str, ...] = ()  # () = every workload


#: name -> why the workload is here (one line each, as BENCHMARK.json has it)
WORKLOADS: dict[str, str] = {
    "micro_rmi": (
        "Table 4 micro-benchmarks in both languages plus raw AM and MPL: the "
        "small-message latency-bound path through threads, sim, ccpp and am"
    ),
    "paper_apps": (
        "EM3D, Water and blocked LU in Split-C and CC++ on 4 procs: the "
        "Figure 5/6 mix, the only one where marshal and the apps kernels "
        "sit beside the RMI path"
    ),
    "em3d_scale": (
        "one bulk EM3D step on 1024 procs over an oversubscribed fat-tree: "
        "1024 schedulers and a deep event heap, apps and splitc lead"
    ),
    "fabric_contention": (
        "incast, all-to-all and bisection traffic over fat-tree, ring and "
        "flat: machine does the work with no runtime, marshalling or app; "
        "flat bypasses routes and link occupancy"
    ),
    "onesided_collectives": (
        "put/get/accumulate, tree against linear collectives at radix 2 and "
        "4, multithreaded injection, EM3D owner-push: the only one where rma "
        "and the collectives run"
    ),
    "em3d_observed": (
        "the 160-node EM3D base step with spans, metrics and a Perfetto "
        "export attached, beside the same call untraced: prices obs on the "
        "path users trace"
    ),
    "orchestration": (
        "50 scaling points through the daemon socket cold, again cached, "
        "and through the in-process client: experiments and service with "
        "the simulator nearly idle, cache writes beside reads"
    ),
    "cli_cached": (
        "`cli run all` as a subprocess against a warm result cache: what a "
        "user waits for on a cached rerun, interpreter start included; the "
        "simulator is bypassed"
    ),
}

#: the end-to-end metrics every workload reports (BENCHMARK.json end_to_end)
END_TO_END: tuple[Metric, ...] = (
    Metric("work_per_s", "1/s", "higher", 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

#: end-to-end metrics that exist on some workloads only, or are constant
#: when the benchmark is healthy; reported by name and compared by
#: ``compare.py``, and carried into the driver's result line as
#: ``correct`` / ``failed`` / ``attempted``
REPORTED: tuple[Metric, ...] = (
    Metric("job_ms_p50", "ms", "lower", 0.15, ("orchestration",)),
    Metric("cli_cached_ms_p50", "ms", "lower", 0.10, ("cli_cached",)),
    Metric("obs_overhead_ratio", "ratio", "lower", 0.10, ("em3d_observed",)),
    Metric("fail_ratio", "ratio", "lower", 0.0),
    Metric("check_ok", "bool", "higher", 0.0),
    Metric("claims_in_band_ratio", "ratio", "higher", 0.0, ("paper_apps",)),
)

#: probe metric -> the scenario callable in benchmarks/scenarios.py it times
PROBES: dict[str, str] = {
    "sim.probe_event_chain_ms": "engine_event_chain",
    "sim.probe_zero_delay_ms": "zero_delay_storm",
    "threads.probe_charge_switch_ms": "trampoline_charge_switch",
    "am.probe_reliable_rtt_ms": "reliable_am_roundtrip",
    "marshal.probe_bulk_payload_ms": "bulk_payload",
    "machine.probe_incast_ms": "congestion_incast_hotspot",
    "machine.probe_alltoall_ms": "congestion_alltoall",
    "machine.probe_bisection_ms": "congestion_bisection",
    "rma.probe_put_rtt_ms": "rma_put_roundtrip",
    "splitc.probe_gp_rw_ms": "splitc_gp_rw_100iters",
    "splitc.probe_tree_allreduce_ms": "tree_allreduce",
    "ccpp.probe_rmi_0word_ms": "ccpp_rmi_0word_100iters",
    "experiments.probe_runner_200_ms": "runner_overhead",
}


def _per_layer() -> tuple[Metric, ...]:
    out: list[Metric] = []
    for layer in (*LAYERS, OTHER):
        out.append(Metric(f"{layer}.self_share", "ratio", "lower"))
        out.append(Metric(f"{layer}.calls", "count", "lower"))
    count = [
        "sim.events", "sim.heap_events", "sim.inline_advances",
        "sim.immediate_events", "threads.creates", "threads.yields",
        "threads.sync_ops", "threads.lock_contended", "machine.packets",
        "machine.bytes", "am.short_msgs", "am.bulk_msgs", "am.polls",
        "ccpp.rmi_warm", "ccpp.rmi_cold", "rma.puts", "rma.gets", "rma.accs",
        "rma.notifies", "obs.spans", "obs.metric_samples",
        "experiments.cache_hits", "experiments.cache_misses",
        "experiments.cache_stores", "service.tasks_executed",
        "service.dedup_hits",
    ]
    out += [Metric(name, "count", "lower") for name in count]
    out += [
        Metric("sim.virt_us", "us", "lower"),
        Metric("sim.host_ns_per_event", "ns", "lower"),
        Metric("machine.host_us_per_packet", "us", "lower"),
        Metric("obs.host_us_per_span", "us", "lower"),
        Metric("am.poll_hit_ratio", "ratio", "higher"),
        Metric("marshal.pool_reuse_ratio", "ratio", "higher"),
        Metric("ccpp.stub_hit_ratio", "ratio", "higher"),
        Metric("ccpp.rbuf_reuse_ratio", "ratio", "higher"),
        Metric("experiments.cache_store_us_p50", "us", "lower"),
        Metric("experiments.cache_load_us_p50", "us", "lower"),
        Metric("experiments.inproc_job_ms_p50", "ms", "lower"),
        Metric("service.cold_job_ms_p50", "ms", "lower"),
        Metric("service.cached_job_ms_p50", "ms", "lower"),
        Metric("service.job_ms_p95", "ms", "lower"),
        Metric("service.submit_ms_p50", "ms", "lower"),
        Metric("service.first_event_ms_p50", "ms", "lower"),
        Metric("service.result_ms_p50", "ms", "lower"),
        Metric("service.start_s", "s", "lower"),
        Metric("service.stop_s", "s", "lower"),
    ]
    out += [Metric(name, "ms", "lower") for name in PROBES]
    out += [
        Metric("harness.trace_overhead_ratio", "ratio", "lower"),
        Metric("harness.calib_ms", "ms", "lower"),
        Metric("harness.noise_iqr_pct", "%", "lower"),
        Metric("harness.work_per_s_raw", "1/s", "higher"),
        Metric("harness.unit_ms_min", "ms", "lower"),
        Metric("harness.samples", "count", "higher"),
    ]
    return tuple(out)


#: per-layer metrics of the traced pass (BENCHMARK.json per_layer)
PER_LAYER: tuple[Metric, ...] = _per_layer()


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` at the root of the repo must hold."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
