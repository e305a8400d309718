"""Serving-throughput experiment: batched vs per-query decision loops.

Not a paper figure -- it quantifies the engineering headroom of the
:mod:`repro.serving` subsystem on top of the paper's online path: how many
hint decisions per second the verified plan cache sustains when arrivals
are answered one Python call at a time versus in vectorised batches.
``benchmarks/test_serving_throughput.py`` prints the resulting table and
asserts the decisions are identical cell-for-cell.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from ..core.plan_cache import PlanCache
from ..core.workload_matrix import WorkloadMatrix
from ..errors import ExperimentError
from ..serving.service import ServingService
from ..workloads.matrices import SyntheticWorkload


def explored_matrix(
    workload: SyntheticWorkload,
    observed_fraction: float = 0.25,
    seed: int = 0,
) -> WorkloadMatrix:
    """A workload matrix mid-exploration: default column plus random cells.

    Mirrors the state the serving layer sees in steady operation -- every
    query has its default latency (executed as part of normal operation)
    and offline exploration has revealed a fraction of the other cells.
    """
    if not 0.0 <= observed_fraction <= 1.0:
        raise ExperimentError(
            f"observed_fraction must be in [0, 1], got {observed_fraction}"
        )
    n, k = workload.true_latencies.shape
    matrix = WorkloadMatrix(n, k)
    rng = np.random.default_rng(seed)
    extra = rng.random((n, k)) < observed_fraction
    extra[:, 0] = True  # the default column is always observed first
    rows, cols = np.nonzero(extra)
    matrix.observe_batch(rows, cols, workload.true_latencies[rows, cols])
    return matrix


def serving_throughput_comparison(
    workload: SyntheticWorkload,
    batch_size: int,
    n_batches: int,
) -> Dict[str, float]:
    """Serve the same arrival stream per-query and batched; compare.

    The matrix is :func:`explored_matrix`'s (a quarter of the cells, seed 0)
    and the arrivals are drawn at seed 1.

    Returns a dictionary with per-query and batched decisions/sec, the
    speedup, serving-stats percentiles, and an ``identical`` flag asserting
    the two paths chose the same hint for every arrival.
    """
    if batch_size < 1 or n_batches < 1:
        raise ExperimentError("batch_size and n_batches must be >= 1")
    matrix = explored_matrix(workload)
    rng = np.random.default_rng(1)
    arrivals = rng.integers(0, matrix.n_queries, size=(n_batches, batch_size))

    # Per-query loop: the seed repo's online path, one lookup per arrival.
    scalar_cache = PlanCache(matrix)
    start = time.perf_counter()
    scalar_hints = [
        scalar_cache.lookup(int(q)).hint for batch in arrivals for q in batch
    ]
    per_query_seconds = time.perf_counter() - start

    # Batched serving: vectorised decisions over precomputed arrays.
    service = ServingService(matrix)
    batched_hints = np.empty(arrivals.size, dtype=np.int64)
    start = time.perf_counter()
    for i, batch in enumerate(arrivals):
        decisions = service.serve_batch(batch)
        batched_hints[i * batch_size:(i + 1) * batch_size] = decisions.hints
    batched_seconds = time.perf_counter() - start

    total = arrivals.size
    stats = service.stats()
    identical = bool(np.array_equal(np.asarray(scalar_hints), batched_hints))
    return {
        "queries": float(matrix.n_queries),
        "hints": float(matrix.n_hints),
        "batch_size": float(batch_size),
        "decisions": float(total),
        "per_query_qps": total / per_query_seconds if per_query_seconds > 0 else float("inf"),
        "batched_qps": total / batched_seconds if batched_seconds > 0 else float("inf"),
        "speedup": (
            per_query_seconds / batched_seconds if batched_seconds > 0 else float("inf")
        ),
        "p50_latency_us": stats.p50_latency_s * 1e6,
        "p99_latency_us": stats.p99_latency_s * 1e6,
        "non_default_fraction": stats.non_default_fraction,
        "identical": float(identical),
    }
