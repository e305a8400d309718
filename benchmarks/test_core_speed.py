"""Core-speed benchmark: warm-started incremental exploration vs cold.

Two claims are measured (not asserted from memory):

1. **Speedup** -- running the offline exploration loop with the
   incremental ALS predictor (one warm fill-in sweep per step, a
   periodic full re-solve to bound drift) is at least 3x faster end-to-end
   than the historical cold ``t=50`` solve on every step.
2. **Equivalence** -- on the default seeded workload the two modes explore
   to the *same final plan selections* (byte-identical ``recommend_hints``)
   and their latency-vs-time traces stay within a small tolerance of each
   other along the way.

The numbers are printed; ``BENCH_core.json`` is the ``repro.perf`` suite's
file and the CI ``perf-smoke`` job is its only writer.
"""

import time

import numpy as np
from _bench_utils import print_series, run_once

from repro.config import ALSConfig, ExplorationConfig
from repro.core.policies import LimeQOPolicy
from repro.core.predictors import ALSPredictor
from repro.core.simulation import ExplorationSimulator
from repro.workloads.matrices import generate_workload
from repro.workloads.spec import WorkloadSpec

N_QUERIES, N_HINTS, BATCH = 120, 16, 10
SPEC = WorkloadSpec(
    name="core-speed",
    n_queries=N_QUERIES,
    n_hints=N_HINTS,
    default_total=10.0 * N_QUERIES,
    optimal_total=3.5 * N_QUERIES,
    rank=5,
)


def _explore(workload, incremental):
    """Run the exploration loop to exhaustion; returns (seconds, trace, hints)."""
    config = ExplorationConfig(batch_size=BATCH, seed=0)
    simulator = ExplorationSimulator(workload.true_latencies, config)
    matrix = simulator.initial_matrix()
    predictor = ALSPredictor(
        ALSConfig(iterations=50),
        warm_start=incremental,
        full_solve_every=20,
    )
    policy = LimeQOPolicy(predictor=predictor)
    start = time.perf_counter()
    trace = simulator.run(policy, max_steps=100_000, matrix=matrix)
    elapsed = time.perf_counter() - start
    hints = [0 if h < 0 else int(h) for h in matrix.best_hint_array()]
    return elapsed, trace, hints, predictor


def run_comparison():
    workload = generate_workload(SPEC, seed=11)
    cold_seconds, cold_trace, cold_hints, _ = _explore(workload, incremental=False)
    warm_seconds, warm_trace, warm_hints, predictor = _explore(
        workload, incremental=True
    )
    return {
        "workload": workload,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "cold_trace": cold_trace,
        "warm_trace": warm_trace,
        "cold_hints": cold_hints,
        "warm_hints": warm_hints,
        "cold_solves": predictor.cold_solves,
        "warm_solves": predictor.warm_solves,
    }


def test_core_speed_warm_vs_cold(benchmark):
    result = run_once(benchmark, run_comparison)

    cold_trace, warm_trace = result["cold_trace"], result["warm_trace"]
    horizon = min(
        cold_trace.total_exploration_time, warm_trace.total_exploration_time
    )
    checkpoints = np.linspace(0.0, horizon, 25)
    print_series(
        "Core speed: total latency (s) vs exploration time (cold vs warm)",
        {
            "cold t=50": cold_trace.latencies_at(checkpoints),
            "warm incremental": warm_trace.latencies_at(checkpoints),
        },
        checkpoints,
        x_label="exploration time (s)",
    )
    print(
        f"\ncold: {result['cold_seconds'] * 1e3:.1f} ms, "
        f"warm: {result['warm_seconds'] * 1e3:.1f} ms, "
        f"speedup: {result['speedup']:.2f}x = {result['speedup'] / 3.0:.2f} of "
        f"the 3x bar ({result['warm_solves']} warm / {result['cold_solves']} "
        "cold solves)"
    )

    # Acceptance: >= 3x end-to-end wall-clock at identical final selections.
    assert result["speedup"] >= 3.0, (
        f"warm-started incremental exploration only {result['speedup']:.2f}x "
        "faster than the cold per-step solve"
    )
    assert result["cold_hints"] == result["warm_hints"], (
        "incremental exploration changed the final plan selections"
    )
    assert cold_trace.final_latency == warm_trace.final_latency
    # Along the way the traces may diverge slightly (different cells get
    # explored first) but must stay within tolerance of each other.
    cold_at = cold_trace.latencies_at(checkpoints)
    warm_at = warm_trace.latencies_at(checkpoints)
    assert np.all(np.abs(cold_at - warm_at) / cold_at < 0.15)
