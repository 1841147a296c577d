"""Benchmark: the simulator's own throughput (wall-clock performance of
the library, as opposed to the virtual-time paper artifacts).

Useful for tracking regressions in the engine/scheduler hot paths: the
numbers are real seconds, and ``benchmark.extra_info`` records the
engine's heap-bypass counters (``fastpath_stats``) so a perf change can
be attributed to the fast path rather than to workload drift.

The workloads themselves live in :mod:`scenarios` — a shared registry so
this suite and the CI regression checker (``smoke_check.py``) always
measure the same code.  Committed minimums are in ``BENCH_simulator.json``.
"""

import pytest

from scenarios import SCENARIOS


def _bench(benchmark, name):
    stats = {}
    result = benchmark(lambda: SCENARIOS[name](stats_out=stats))
    benchmark.extra_info.update(stats)
    return result, stats


@pytest.mark.benchmark(group="simulator-throughput")
def test_engine_event_throughput(benchmark):
    fired, _ = _bench(benchmark, "engine_event_chain")
    assert fired == 20_001


@pytest.mark.benchmark(group="simulator-throughput")
def test_zero_delay_storm_throughput(benchmark):
    fired, stats = _bench(benchmark, "zero_delay_storm")
    assert fired == 20_001
    assert stats["heap_fired"] == 20_001


@pytest.mark.benchmark(group="simulator-throughput")
def test_trampoline_charge_switch_rate(benchmark):
    fired, stats = _bench(benchmark, "trampoline_charge_switch")
    assert fired > 4_000
    assert stats["inline_advances"] > 0


@pytest.mark.benchmark(group="simulator-throughput")
def test_ccpp_rmi_simulation_rate(benchmark):
    row, _ = _bench(benchmark, "ccpp_rmi_0word_100iters")
    assert row.total_us > 0


@pytest.mark.benchmark(group="simulator-throughput")
def test_splitc_read_simulation_rate(benchmark):
    row, _ = _bench(benchmark, "splitc_gp_rw_100iters")
    assert row.total_us > 0


@pytest.mark.benchmark(group="simulator-throughput")
def test_reliable_am_roundtrip_rate(benchmark):
    rtt, _ = _bench(benchmark, "reliable_am_roundtrip")
    assert rtt > 0


@pytest.mark.benchmark(group="simulator-throughput")
def test_bulk_payload_rate(benchmark):
    reads, _ = _bench(benchmark, "bulk_payload")
    assert reads == 30


@pytest.mark.benchmark(group="simulator-throughput")
def test_runner_overhead(benchmark):
    n, stats = _bench(benchmark, "runner_overhead")
    assert n == 200
    assert stats["misses"] == 200 and stats["stores"] == 200


@pytest.mark.benchmark(group="simulator-throughput")
def test_em3d_step_simulation_rate(benchmark):
    res = benchmark.pedantic(
        lambda: SCENARIOS["em3d_step_160nodes"](),
        rounds=1,
        iterations=1,
    )
    assert res.elapsed_us > 0


@pytest.mark.benchmark(group="simulator-throughput")
def test_rma_put_roundtrip_rate(benchmark):
    now, _ = _bench(benchmark, "rma_put_roundtrip")
    assert now > 0


@pytest.mark.benchmark(group="simulator-throughput")
def test_tree_allreduce_rate(benchmark):
    now, _ = _bench(benchmark, "tree_allreduce")
    assert now > 0
