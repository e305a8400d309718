"""Drift-aware adaptive serving vs a static snapshot cache (ISSUE 5 gate).

Runs the six-scenario drift library (sudden 70/30 workload shift, gradual
data drift, diurnal tenant mix, flash crowd, new-template stream, ETL
flood -- the paper's Figures 8-11 territory plus the serving-scale
stories) three ways each: static snapshot cache, adaptive controller, and
an adaptive replay.  Acceptance:

* across every scenario the adaptive stack recovers >= 50% of the static
  cache's post-disturbance latency regression,
* the adaptive run never serves worse in total than the always-default
  (no-regression) baseline,
* replaying a scenario with the same seed reproduces byte-identical
  decisions.

Writes ``BENCH_adaptive.json`` for the cross-PR trajectory.
"""

from _bench_utils import run_once, write_bench_json

from repro.experiments.adaptive import scenario_suite_comparison
from repro.experiments.reporting import format_table
from repro.scenarios import drift_benchmark_scenarios

RECOVERY_FLOOR = 0.5
MIN_SCENARIOS = 6


def test_adaptive_drift_recovery(benchmark):
    specs = drift_benchmark_scenarios()
    assert len(specs) >= MIN_SCENARIOS
    results = run_once(benchmark, scenario_suite_comparison, specs)
    summary = results.pop("_summary")

    rows = []
    for name in sorted(results):
        r = results[name]
        rows.append(
            [
                name,
                f"{r['pre_improvement']:.1%}",
                f"{r['static_post_improvement']:.1%}",
                f"{r['adaptive_post_improvement']:.1%}",
                f"{r['recovery']:.0%}",
                f"{r['responses']:.0f}+{r['recovery_passes']:.0f}",
                f"{r['explored_cells']:.0f}",
            ]
        )
    print("\n=== Adaptive drift recovery (6 scenarios, one-shard cluster target) ===")
    print(
        format_table(
            [
                "scenario",
                "pre",
                "static post",
                "adaptive post",
                "recovery",
                "resp+recov",
                "cells",
            ],
            rows,
        )
    )
    print(
        f"min recovery {summary['min_recovery']:.0%}, "
        f"mean {summary['mean_recovery']:.0%}; replays identical: "
        f"{bool(summary['all_replays_identical'])}; never worse than default: "
        f"{bool(summary['all_never_worse_than_default'])}"
    )
    path = write_bench_json("adaptive", {**results, "summary": summary})
    print(f"wrote {path}")

    assert summary["scenarios"] >= MIN_SCENARIOS
    for name, r in results.items():
        assert r["static_regression"] > 0.02, (
            f"{name}: static cache did not regress; the scenario is not a "
            "drift test"
        )
        assert r["recovery"] >= RECOVERY_FLOOR, (
            f"{name}: adaptive recovered only {r['recovery']:.0%} of the "
            f"static regression (floor {RECOVERY_FLOOR:.0%})"
        )
        assert r["never_worse_than_default"] == 1.0, (
            f"{name}: adaptive served worse than the no-regression default"
        )
        assert r["replay_identical"] == 1.0, (
            f"{name}: replay with the same seed diverged"
        )
