"""Workload specifications matching the paper's Table 1.

Each spec records the query count, the hint-space size, and the Default /
Optimal total latencies the paper measured on PostgreSQL 16.1.  Synthetic
workloads are calibrated against these totals so the figures' axes land in
the same ranges as the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import WorkloadError

HOUR = 3600.0
#: Bao's hint sets: six boolean join/scan switches (hash, merge and
#: nested-loop join; index, sequential and index-only scan), with at least one
#: join and at least one scan enabled -- 7 x 7 = 49 valid combinations.
NUM_HINT_SETS = 49


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape and calibration targets of one benchmark workload."""

    name: str
    n_queries: int
    default_total: float
    optimal_total: float
    n_hints: int = NUM_HINT_SETS
    rank: int = 5

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise WorkloadError(f"{self.name}: n_queries must be >= 1")
        if self.n_hints < 2:
            raise WorkloadError(f"{self.name}: n_hints must be >= 2")
        if self.optimal_total <= 0 or self.default_total <= 0:
            raise WorkloadError(f"{self.name}: totals must be > 0")
        if self.optimal_total > self.default_total:
            raise WorkloadError(
                f"{self.name}: optimal total cannot exceed the default total"
            )

    @property
    def headroom(self) -> float:
        """Default / Optimal ratio (how much a perfect oracle could save)."""
        return self.default_total / self.optimal_total

    def scaled(self, query_fraction: float) -> "WorkloadSpec":
        """A smaller copy with ``query_fraction`` of the queries.

        Totals shrink proportionally so per-query latencies stay realistic;
        used by tests and by benchmarks that need to stay fast.
        """
        if not 0.0 < query_fraction <= 1.0:
            raise WorkloadError("query_fraction must be in (0, 1]")
        n_queries = max(2, int(round(self.n_queries * query_fraction)))
        factor = n_queries / self.n_queries
        return replace(
            self,
            name=f"{self.name}-x{query_fraction:g}",
            n_queries=n_queries,
            default_total=self.default_total * factor,
            optimal_total=self.optimal_total * factor,
        )


# Paper Table 1.  The datasets behind them: JOB and CEB run on IMDb (7.2 GB),
# Stack on the 2019 StackExchange dump (100 GB; the 2017 snapshot is 85 GB),
# DSB on TPC-DS-style data (50 GB).
JOB_SPEC = WorkloadSpec(
    name="job", n_queries=113, default_total=181.0, optimal_total=68.0,
)
CEB_SPEC = WorkloadSpec(
    name="ceb", n_queries=3133, default_total=2.94 * HOUR, optimal_total=1.02 * HOUR,
)
STACK_SPEC = WorkloadSpec(
    name="stack", n_queries=6191, default_total=1.46 * HOUR, optimal_total=1.09 * HOUR,
)
# The 2017 snapshot used in the data-shift experiment (Section 5.4).
STACK_2017_SPEC = WorkloadSpec(
    name="stack-2017", n_queries=6191, default_total=1.16 * HOUR,
    optimal_total=0.90 * HOUR,
)
DSB_SPEC = WorkloadSpec(
    name="dsb", n_queries=1040, default_total=4.75 * HOUR, optimal_total=2.74 * HOUR,
)

_SPECS = {
    spec.name: spec
    for spec in (JOB_SPEC, CEB_SPEC, STACK_SPEC, STACK_2017_SPEC, DSB_SPEC)
}


def get_spec(name: str) -> WorkloadSpec:
    """Look up a spec by name (``job``, ``ceb``, ``stack``, ``stack-2017``, ``dsb``)."""
    try:
        return _SPECS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; expected one of {sorted(_SPECS)}"
        ) from None
