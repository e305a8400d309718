"""Serving throughput: batched decisions vs the per-query online path.

Serves an identical random arrival stream (batch size 256) through the
scalar :class:`PlanCache` loop and through :class:`ServingService`'s
vectorised path on a CEB-scale matrix, printing decisions/sec, latency
percentiles, and the speedup.  Acceptance: batched serving is at least 5x
the per-query loop with cell-for-cell identical decisions, and a serve
right after a feedback batch (row patch) is at least 5x a serve behind a
forced whole-matrix rebuild, byte-identical.
"""

import time

import numpy as np
from _bench_utils import run_once, write_bench_json

from repro.experiments.reporting import format_table
from repro.experiments.serving import explored_matrix, serving_throughput_comparison
from repro.serving import ServingService
from repro.workloads.matrices import generate_workload
from repro.workloads.spec import CEB_SPEC


def test_serving_throughput(benchmark):
    workload = generate_workload(CEB_SPEC.scaled(0.65), seed=0)  # ~2k queries
    result = run_once(
        benchmark,
        serving_throughput_comparison,
        workload,
        batch_size=256,
        n_batches=64,
        observed_fraction=0.25,
        seed=0,
    )
    print("\n=== Serving throughput (CEB-scale matrix, batch size 256) ===")
    print(
        format_table(
            ["path", "decisions/sec", "p50 latency (us)", "p99 latency (us)"],
            [
                ["per-query loop", f"{result['per_query_qps']:,.0f}", "-", "-"],
                [
                    "batched serving",
                    f"{result['batched_qps']:,.0f}",
                    f"{result['p50_latency_us']:.2f}",
                    f"{result['p99_latency_us']:.2f}",
                ],
            ],
        )
    )
    print(
        f"speedup: {result['speedup']:.1f}x over "
        f"{result['decisions']:.0f} decisions on a "
        f"{result['queries']:.0f}x{result['hints']:.0f} matrix "
        f"(hit rate {result['non_default_fraction']:.1%})"
    )
    path = write_bench_json("serving", result)
    print(f"wrote {path}")
    assert result["identical"] == 1.0, "batched decisions diverged from per-query"
    assert result["speedup"] >= 5.0
    assert result["batched_qps"] > result["per_query_qps"]


def served_after_write(workload, ticks=200, write_cells=64, batch_size=256, seed=0):
    """Serve right after a feedback batch: row patch vs a forced full rebuild.

    Two services over equal matrices get the same ticks (a
    ``write_cells``-cell ``observe_batch``, then one ``serve_batch``); one
    lets the cache patch the touched rows, the other is made to recompute
    every row first -- what any write cost the next reader before
    ``rows_changed_since``.  Only the serve side is timed.
    """
    truth = workload.true_latencies
    n, k = truth.shape
    patching = ServingService(explored_matrix(workload, 0.25, seed=seed))
    rebuilding = ServingService(explored_matrix(workload, 0.25, seed=seed))
    patching.serve_all()
    rebuilding.serve_all()
    rng = np.random.default_rng(seed)
    patch_s = rebuild_s = 0.0
    identical = True
    for _ in range(ticks):
        q, h = rng.integers(0, n, write_cells), rng.integers(0, k, write_cells)
        arrivals = rng.integers(0, n, batch_size)
        for service in (patching, rebuilding):
            service.observe_batch(q, h, truth[q, h], refresh=False)
        start = time.perf_counter()
        got = patching.serve_batch(arrivals)
        patch_s += time.perf_counter() - start
        start = time.perf_counter()
        rebuilding.cache.refresh()
        want = rebuilding.serve_batch(arrivals)
        rebuild_s += time.perf_counter() - start
        identical &= (
            got.hints.tobytes() == want.hints.tobytes()
            and got.used_default.tobytes() == want.used_default.tobytes()
            and got.expected_latency.tobytes() == want.expected_latency.tobytes()
        )
    metrics = patching.recorder.metrics
    return {
        "queries": float(n),
        "ticks": float(ticks),
        "patched_us_per_serve": patch_s / ticks * 1e6,
        "rebuilt_us_per_serve": rebuild_s / ticks * 1e6,
        "speedup": rebuild_s / patch_s,
        "identical": float(identical),
        "full_rebuilds": metrics.cache_rebuilds.value,
        "patched_rows_per_write": metrics.cache_patched_rows.value / ticks,
    }


def test_serving_after_write(benchmark):
    workload = generate_workload(CEB_SPEC.scaled(0.65), seed=0)
    result = run_once(benchmark, served_after_write, workload)
    print(
        f"\n=== Serving right after a 64-cell write ({result['queries']:.0f} rows) ===\n"
        f"row patch {result['patched_us_per_serve']:.1f} us vs forced full rebuild "
        f"{result['rebuilt_us_per_serve']:.1f} us per serve_batch(256) -> "
        f"{result['speedup']:.1f}x; {result['patched_rows_per_write']:.1f} rows "
        f"patched per write, {result['full_rebuilds']:.0f} full rebuild(s)"
    )
    path = write_bench_json("serving_after_write", result)
    print(f"wrote {path}")
    assert result["identical"] == 1.0, "patched decisions diverged from a full rebuild"
    assert result["full_rebuilds"] == 1.0  # the first build only
    assert result["speedup"] >= 5.0
