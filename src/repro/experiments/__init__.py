"""The experiment harness: one function per paper table / figure.

:mod:`repro.experiments.runner` provides the shared machinery (policy
factory, checkpointed runs);
:mod:`repro.experiments.figures` exposes ``table1_*`` / ``figure5_*`` ...
functions that return plain dictionaries of series, and
:mod:`repro.experiments.reporting` renders them as text tables, which is
what the benchmark harness prints.
"""

from .figures import (
    figure5_performance,
    figure6_ceb_curves,
    figure7_overhead,
    figure8_etl,
    figure9_workload_shift,
    figure10_incremental_drift,
    figure11_data_shift,
    figure12_tcnn_vs_limeqo_plus,
    figure13_overhead_tcnn,
    figure14_singular_values,
    figure15_rank_ablation,
    figure16_censored_ablation,
    figure17_mc_comparison,
    figure18_bayesqo,
    table1_workload_summary,
)
from .runner import (
    CheckpointedRun,
    make_policy,
    run_policy_on_workload,
)
from .reporting import format_series_table, format_table
from .serving import explored_matrix, serving_throughput_comparison
from .cluster import cluster_vs_single_comparison, populate_cluster
from .adaptive import (
    adaptive_vs_static_comparison,
    improvement_plateaus,
    scenario_suite_comparison,
)

__all__ = [
    "figure5_performance",
    "figure6_ceb_curves",
    "figure7_overhead",
    "figure8_etl",
    "figure9_workload_shift",
    "figure10_incremental_drift",
    "figure11_data_shift",
    "figure12_tcnn_vs_limeqo_plus",
    "figure13_overhead_tcnn",
    "figure14_singular_values",
    "figure15_rank_ablation",
    "figure16_censored_ablation",
    "figure17_mc_comparison",
    "figure18_bayesqo",
    "table1_workload_summary",
    "CheckpointedRun",
    "make_policy",
    "run_policy_on_workload",
    "format_series_table",
    "format_table",
    "explored_matrix",
    "serving_throughput_comparison",
    "cluster_vs_single_comparison",
    "populate_cluster",
    "adaptive_vs_static_comparison",
    "improvement_plateaus",
    "scenario_suite_comparison",
]
