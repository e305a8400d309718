"""Serving throughput: batched decisions vs the per-query online path.

Serves an identical random arrival stream (batch size 256) through the
scalar :class:`PlanCache` loop and through :class:`ServingService`'s
vectorised path on a CEB-scale matrix, printing decisions/sec, latency
percentiles, and the speedup.  Acceptance: batched serving is at least 5x
the per-query loop with cell-for-cell identical decisions.
"""

from _bench_utils import run_once, write_bench_json

from repro.experiments.reporting import format_table
from repro.experiments.serving import serving_throughput_comparison
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
