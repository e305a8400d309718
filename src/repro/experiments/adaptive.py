"""Adaptive-vs-static drift experiment over the scenario library.

For one scenario this runs three times with identical seeds -- a *static
snapshot cache* (bootstrapped once, never told what execution measured),
the *adaptive* stack (drift controller closing the loop), and an adaptive
*replay* -- and reduces the traces to the quantities the acceptance gate in
``benchmarks/test_adaptive_drift.py`` asserts:

* ``recovery``: how much of the static run's post-disturbance regression
  the adaptive run wins back.  Serving quality is measured as the per-tick
  fractional improvement over always-default serving (which normalises
  away uniform latency growth), the regression is the drop from the
  pre-disturbance plateau to the final ticks, and
  ``recovery = 1 - adaptive_regression / static_regression``;
* ``never_worse_than_default``: the adaptive run's total served true
  latency never exceeds what serving every arrival with the default plan
  would have cost -- the paper's no-regression anchor, end to end;
* ``replay_identical``: the two adaptive runs produced byte-identical
  decision traces (seeded determinism).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import ExperimentError
from ..scenarios.runner import ScenarioRunner, ScenarioTrace
from ..scenarios.spec import ScenarioSpec

#: Ticks averaged on each side of the disturbance for the plateau metrics.
PLATEAU_TICKS = 5


def improvement_plateaus(trace: ScenarioTrace, disturbance_tick: int) -> Dict[str, float]:
    """Pre-disturbance and end-of-run improvement plateaus for one trace."""
    improvement = trace.improvement()
    if disturbance_tick < 1 or disturbance_tick >= improvement.size:
        raise ExperimentError(
            f"disturbance tick {disturbance_tick} outside trace of "
            f"{improvement.size} ticks"
        )
    pre = improvement[max(0, disturbance_tick - PLATEAU_TICKS):disturbance_tick]
    post = improvement[-PLATEAU_TICKS:]
    return {"pre": float(pre.mean()), "post": float(post.mean())}


def adaptive_vs_static_comparison(spec: ScenarioSpec) -> Dict[str, float]:
    """Run one scenario static and adaptive; reduce to the acceptance metrics."""
    disturbance = spec.first_disturbance_tick()
    if disturbance is None:
        raise ExperimentError(
            f"scenario {spec.name!r} has no disturbance; the recovery metric "
            "is undefined"
        )

    def build(adaptive: bool) -> ScenarioRunner:
        return ScenarioRunner(spec, adaptive=adaptive)

    static_trace = build(adaptive=False).run()
    adaptive_trace = build(adaptive=True).run()
    replay_trace = build(adaptive=True).run()
    replay_identical = adaptive_trace.decisions_blob() == replay_trace.decisions_blob()

    static_plateaus = improvement_plateaus(static_trace, disturbance)
    adaptive_plateaus = improvement_plateaus(adaptive_trace, disturbance)
    static_regression = static_plateaus["pre"] - static_plateaus["post"]
    adaptive_regression = max(
        adaptive_plateaus["pre"] - adaptive_plateaus["post"], 0.0
    )
    recovery = (
        1.0 - adaptive_regression / static_regression
        if static_regression > 0
        else float("inf")
    )

    adaptive_summary = adaptive_trace.summary()
    report = adaptive_trace.adaptive_report or {}
    return {
        "scenario_ticks": float(spec.total_ticks),
        "disturbance_tick": float(disturbance),
        "arrivals": adaptive_summary["arrivals"],
        "pre_improvement": static_plateaus["pre"],
        "static_post_improvement": static_plateaus["post"],
        "adaptive_post_improvement": adaptive_plateaus["post"],
        "static_regression": float(static_regression),
        "adaptive_regression": float(adaptive_regression),
        "recovery": float(recovery),
        "adaptive_served_latency": adaptive_summary["served_latency"],
        "adaptive_default_latency": adaptive_summary["default_latency"],
        "never_worse_than_default": float(
            adaptive_summary["served_latency"]
            <= adaptive_summary["default_latency"]
        ),
        "replay_identical": float(replay_identical),
        "responses": float(report.get("responses", 0)),
        "recovery_passes": float(report.get("recovery_passes", 0)),
        "invalidated_rows": float(report.get("invalidated_rows", 0)),
        "explored_cells": float(report.get("explored_cells", 0)),
        "remeasured_cells": float(report.get("remeasured_cells", 0)),
    }


def scenario_suite_comparison(
    specs: Dict[str, ScenarioSpec],
) -> Dict[str, Dict[str, float]]:
    """Run :func:`adaptive_vs_static_comparison` across a scenario library."""
    results: Dict[str, Dict[str, float]] = {}
    for name in sorted(specs):
        results[name] = adaptive_vs_static_comparison(specs[name])
    summary = {
        "scenarios": float(len(results)),
        "min_recovery": float(min(r["recovery"] for r in results.values())),
        "mean_recovery": float(
            np.mean([r["recovery"] for r in results.values()])
        ),
        "all_replays_identical": float(
            all(r["replay_identical"] == 1.0 for r in results.values())
        ),
        "all_never_worse_than_default": float(
            all(r["never_worse_than_default"] == 1.0 for r in results.values())
        ),
    }
    results["_summary"] = summary
    return results
