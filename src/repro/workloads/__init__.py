"""Workload construction: paper benchmarks, synthetic matrices, shifts.

:mod:`repro.workloads.matrices` generates calibrated low-rank latency
matrices directly from the specs in :mod:`repro.workloads.spec` (the
paper's Table 1): every figure, benchmark and example runs on one.

:mod:`repro.workloads.shift` implements the paper's workload-shift,
data-shift and ETL-query experiments.
"""

from .matrices import SyntheticWorkload, generate_workload
from .shift import (
    DRIFT_BY_AGE,
    add_etl_query,
    apply_data_shift,
    etl_latency_rows,
    shift_latencies,
    split_for_workload_shift,
)
from .spec import (
    CEB_SPEC,
    DSB_SPEC,
    JOB_SPEC,
    STACK_SPEC,
    STACK_2017_SPEC,
    WorkloadSpec,
    get_spec,
)

__all__ = [
    "SyntheticWorkload",
    "generate_workload",
    "DRIFT_BY_AGE",
    "add_etl_query",
    "apply_data_shift",
    "etl_latency_rows",
    "shift_latencies",
    "split_for_workload_shift",
    "CEB_SPEC",
    "DSB_SPEC",
    "JOB_SPEC",
    "STACK_SPEC",
    "STACK_2017_SPEC",
    "WorkloadSpec",
    "get_spec",
]
