"""Batched online serving: Figure 2's online path at production throughput.

The paper's online story is a per-query cache lookup; this package is the
same verified, no-regression serving rule engineered for heavy traffic:

* :mod:`repro.serving.batch_cache` -- vectorised decisions over precomputed
  best-verified-hint arrays, auto-invalidated by the workload-matrix
  version counter,
* :mod:`repro.serving.refresh` -- warm-started incremental censored-ALS
  refreshes of a cluster shard's completion, without a full solve,
* :mod:`repro.serving.service` -- the request-facing service (serve /
  observe / report),
* :mod:`repro.serving.stats` -- throughput, p50/p99 decision latency, and
  regression-guarantee hit-rate telemetry.
"""

from .batch_cache import BatchDecisions, BatchedPlanCache
from .refresh import IncrementalALSRefresher
from .service import ServingService
from .stats import LatencyRecorder, ServingStats

__all__ = [
    "BatchDecisions",
    "BatchedPlanCache",
    "IncrementalALSRefresher",
    "ServingService",
    "LatencyRecorder",
    "ServingStats",
]
