"""Workload construction: paper benchmarks, synthetic matrices, shifts.

Two paths produce workloads:

* :mod:`repro.workloads.generator` runs the full DB substrate (catalog →
  queries → planner → latency model) and is used for JOB-sized workloads
  and the end-to-end examples;
* :mod:`repro.workloads.matrices` generates calibrated low-rank latency
  matrices directly from the specs in :mod:`repro.workloads.spec`, which is
  how the large CEB / Stack / DSB matrices are reproduced quickly for the
  benchmark harness.

:mod:`repro.workloads.shift` implements the paper's workload-shift,
data-shift and ETL-query experiments.
"""

from .generator import DatabaseWorkload, build_database_workload
from .matrices import SyntheticWorkload, generate_workload
from .shift import (
    DataDriftModel,
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
    "DatabaseWorkload",
    "build_database_workload",
    "SyntheticWorkload",
    "generate_workload",
    "DataDriftModel",
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
