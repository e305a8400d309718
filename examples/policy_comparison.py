"""Compare all six exploration policies on one workload (Figure 5 style).

Prints total workload latency after [1/4, 1/2, 1, 2, 4] x the default
workload time of offline exploration for QO-Advisor, Bao-Cache, Random,
Greedy, LimeQO and LimeQO+, next to the Default and Optimal reference rows.

Run with:  python examples/policy_comparison.py
"""

import numpy as np

from repro import CEB_SPEC, generate_workload
from repro.experiments.reporting import format_series_table
from repro.experiments.runner import (
    FAST_TCNN_CONFIG,
    default_checkpoints,
    run_policy_on_workload,
)

POLICIES = ("qo-advisor", "bao-cache", "random", "greedy", "limeqo", "limeqo+")


def main() -> None:
    workload = generate_workload(CEB_SPEC.scaled(0.03), seed=0)
    checkpoints = default_checkpoints(workload)
    print(f"CEB-like workload: {workload.n_queries} queries, "
          f"default {workload.default_total:.0f} s, "
          f"optimal {workload.optimal_total:.0f} s\n")

    series = {}
    for name in POLICIES:
        run = run_policy_on_workload(
            workload, name, checkpoints=checkpoints, tcnn_config=FAST_TCNN_CONFIG,
            max_steps=60,
        )
        series[name] = run.latencies
        print(f"  finished {name} "
              f"(final latency {run.latencies[-1]:.0f} s, "
              f"model overhead {run.overheads[-1]:.1f} s)")
    series["optimal"] = np.full(len(checkpoints), workload.optimal_total)

    print("\nTotal latency (s) vs offline exploration time "
          "(multiples of the default workload time):")
    print(format_series_table(series, checkpoints / workload.default_total,
                              x_label="x default", value_format="{:.1f}"))


if __name__ == "__main__":
    main()
