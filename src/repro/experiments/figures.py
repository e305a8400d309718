"""One function per paper table / figure.

Every function returns plain dictionaries of numbers (no plotting), sized
by a ``scale`` argument so that the benchmark harness can regenerate the
figures quickly on a laptop while tests use even smaller scales.  Absolute
numbers will differ from the paper (the workloads are calibrated synthetic
matrices, not the authors' PostgreSQL testbed), but the *shapes* -- which
method wins, by roughly what factor, and where the crossovers fall -- are
what these functions reproduce.

A function takes, with no defaults, its size -- the scale and, for the
neural policies, the TCNN -- and what the benchmark
(``benchmarks/test_figures.py::FIGURES``) and the tests set differently:
Figure 5's policies and step cap and Figure 18's per-query budget.  What no
caller varies is fixed here, in the function's body or in a constant below.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import ALSConfig, TCNNConfig
from ..core.matrix_completion import (
    ALSCompleter,
    NuclearNormCompleter,
    SVTCompleter,
    completion_mse,
)
from ..core.policies import LimeQOPolicy
from ..core.predictors import ALSPredictor
from ..core.simulation import ExplorationSimulator, ExplorationTrace
from ..core.workload_matrix import WorkloadMatrix
from ..core.explorer import MatrixOracle
from ..baselines.bayesqo import BayesQO
from ..errors import CompletionError
from ..workloads.matrices import SyntheticWorkload, generate_workload
from ..workloads.shift import (
    DRIFT_BY_AGE,
    add_etl_query,
    apply_data_shift,
    changed_optimal_fraction,
    split_for_workload_shift,
)
from ..workloads.spec import (
    CEB_SPEC,
    DSB_SPEC,
    JOB_SPEC,
    STACK_SPEC,
    get_spec,
)
from .runner import (
    default_checkpoints,
    make_policy,
    run_policy_on_workload,
)

#: Every figure draws its workload at this seed.  Exploration runs at
#: :class:`~repro.config.ExplorationConfig`'s defaults (batches of 10
#: queries, seed 0) in every figure but Figure 18, whose LimeQO takes
#: batches of five.
SEED = 0
#: LimeQO+'s measured speedup on an A100 GPU in the paper (3600 s -> 660 s).
GPU_SPEEDUP_ESTIMATE = 5.45
#: Figure 9's shift time as a multiple of the default workload time: the
#: paper adds the remaining queries at the 2-hour mark of the 2.94-hour CEB
#: workload.
SHIFT_AT_MULTIPLIER = 0.68
#: Figure 11: LimeQO explores the 2017 data for this many times its default
#: workload time before the two-year shift.
PRE_SHIFT_MULTIPLIER = 2.0
#: Figure 6's policies.
CURVE_POLICIES = ("qo-advisor", "random", "greedy", "limeqo", "limeqo+")
#: Figure 15's ranks.
RANKS = (1, 2, 3, 5, 7, 9)
#: Figure 17's fractions of the JOB matrix observed (the default column is
#: always observed on top).
FILL_FRACTIONS = (0.1, 0.15, 0.2, 0.25, 0.3)


def _load_workload(name: str, scale: float) -> SyntheticWorkload:
    spec = get_spec(name)
    if scale < 1.0:
        spec = spec.scaled(scale)
    return generate_workload(spec, seed=SEED)


def table1_workload_summary(scale: float) -> Dict[str, Dict]:
    """Table 1: per-workload Default and Optimal totals plus headroom."""
    out: Dict[str, Dict] = {}
    for spec in (JOB_SPEC, CEB_SPEC, STACK_SPEC, DSB_SPEC):
        workload = _load_workload(spec.name, scale)
        share = workload.n_queries / spec.n_queries
        out[spec.name] = {
            "n_queries": workload.n_queries,
            "n_hints": workload.n_hints,
            "default_total_s": workload.default_total,
            "optimal_total_s": workload.optimal_total,
            "headroom": workload.headroom,
            "paper_default_s": spec.default_total * share,
            "paper_optimal_s": spec.optimal_total * share,
            "exhaustive_exploration_s": workload.exhaustive_exploration_time(),
        }
    return out


def figure5_performance(
    scales: Mapping[str, float],
    policies: Sequence[str],
    tcnn_config: TCNNConfig,
    max_steps: Optional[int],
) -> Dict[str, Dict]:
    """Figure 5: total latency at [1/4, 1/2, 1, 2, 4] x default time, on
    each workload of ``scales`` at its own scale."""
    results: Dict[str, Dict] = {}
    for name, scale in scales.items():
        workload = _load_workload(name, scale)
        checkpoints = default_checkpoints(workload)
        per_policy = {}
        for policy_name in policies:
            run = run_policy_on_workload(
                workload, policy_name, checkpoints=checkpoints, tcnn_config=tcnn_config,
                max_steps=max_steps,
            )
            per_policy[policy_name] = {
                "checkpoints": run.checkpoints.tolist(),
                "latencies": run.latencies.tolist(),
            }
        results[name] = {
            "default_total": workload.default_total,
            "optimal_total": workload.optimal_total,
            "policies": per_policy,
        }
    return results


def figure6_ceb_curves(scale: float, tcnn_config: TCNNConfig) -> Dict[str, Dict]:
    """Figure 6: latency-vs-exploration-time curves on CEB, up to twice
    the default workload time."""
    workload = _load_workload("ceb", scale)
    budget = 2.0 * workload.default_total
    curves: Dict[str, Dict] = {}
    for policy_name in CURVE_POLICIES:
        run = run_policy_on_workload(
            workload, policy_name, checkpoints=[budget], time_budget=budget,
            tcnn_config=tcnn_config,
        )
        curves[policy_name] = {
            "times": run.trace.times.tolist(),
            "latencies": run.trace.latencies.tolist(),
        }
    return {
        "default_total": workload.default_total,
        "optimal_total": workload.optimal_total,
        "curves": curves,
    }


def _ceb_pair(
    scale: float,
    budget_multiplier: float,
    policies: Tuple[str, str],
    tcnn_config: TCNNConfig,
    series: str,
) -> Tuple[SyntheticWorkload, Dict[str, object]]:
    """Both policies on CEB, sampled at four checkpoints up to a budget of
    ``budget_multiplier`` times the default workload time: the workload, and
    the checkpoints beside each policy's ``series`` ("latencies" or
    "overheads")."""
    workload = _load_workload("ceb", scale)
    budget = budget_multiplier * workload.default_total
    checkpoints = np.linspace(budget / 4, budget, 4)
    out: Dict[str, object] = {"checkpoints": checkpoints.tolist()}
    for name in policies:
        run = run_policy_on_workload(
            workload, name, checkpoints=checkpoints, time_budget=budget, tcnn_config=tcnn_config
        )
        out[name] = {series: getattr(run, series).tolist()}
    return workload, out


def figure7_overhead(scale: float, tcnn_config: TCNNConfig) -> Dict[str, Dict]:
    """Figure 7: cumulative model overhead for LimeQO vs LimeQO+, up to 1.5
    times the default workload time.

    The paper also measures LimeQO+ on an A100 GPU; no GPU is available
    here, so that series is the measured CPU overhead divided by the
    paper's :data:`GPU_SPEEDUP_ESTIMATE`.
    """
    _, out = _ceb_pair(scale, 1.5, ("limeqo", "limeqo+"), tcnn_config, "overheads")
    measured = np.asarray(out["limeqo+"]["overheads"])
    out["limeqo+(gpu-estimate)"] = {"overheads": (measured / GPU_SPEEDUP_ESTIMATE).tolist()}
    out["overhead_ratio"] = measured[-1] / max(out["limeqo"]["overheads"][-1], 1e-9)
    return out


def figure12_tcnn_vs_limeqo_plus(scale: float, tcnn_config: TCNNConfig) -> Dict[str, Dict]:
    """Figure 12: the embeddings make LimeQO+ beat the pure TCNN."""
    workload, out = _ceb_pair(scale, 1.0, ("tcnn", "limeqo+"), tcnn_config, "latencies")
    return {"default_total": workload.default_total, "optimal_total": workload.optimal_total, **out}


def figure13_overhead_tcnn(scale: float, tcnn_config: TCNNConfig) -> Dict[str, Dict]:
    """Figure 13: overhead of the pure TCNN vs the transductive TCNN."""
    return _ceb_pair(scale, 1.0, ("tcnn", "limeqo+"), tcnn_config, "overheads")[1]


def figure8_etl(scale: float) -> Dict[str, Dict]:
    """Figure 8: Greedy wastes time on an ETL query, LimeQO ignores it."""
    workload = _load_workload("stack", scale)
    # The paper's ETL query (576.5 s) dwarfs the scaled workload; keep the
    # same *relative* weight: roughly 10% of the default total.
    workload = add_etl_query(workload, latency=0.1 * workload.default_total, seed=SEED)
    budget = 2.0 * workload.default_total
    checkpoints = np.linspace(budget / 8, budget, 8)
    out: Dict[str, Dict] = {
        "default_total": workload.default_total,
        "checkpoints": checkpoints.tolist(),
    }
    for policy_name in ("greedy", "limeqo"):
        run = run_policy_on_workload(
            workload, policy_name, checkpoints=checkpoints, time_budget=budget
        )
        out[policy_name] = {"latencies": run.latencies.tolist()}
    return out


def figure9_workload_shift(scale: float) -> Dict[str, Dict]:
    """Figure 9: 30% of the queries arrive mid-exploration, at
    :data:`SHIFT_AT_MULTIPLIER` times the default workload time."""
    workload = _load_workload("ceb", scale)
    initial_idx, late_idx = split_for_workload_shift(
        workload, initial_fraction=0.7, seed=SEED
    )
    shift_time = SHIFT_AT_MULTIPLIER * workload.default_total
    budget = 2.0 * workload.default_total
    checkpoints = np.linspace(budget / 8, budget, 8)

    out: Dict[str, Dict] = {
        "default_total": workload.default_total,
        "optimal_total": workload.optimal_total,
        "shift_time": shift_time,
        "checkpoints": checkpoints.tolist(),
    }
    for policy_name in ("limeqo", "greedy"):
        trace = _run_with_workload_shift(
            workload, policy_name, initial_idx, late_idx, shift_time, budget
        )
        out[policy_name + " (with shift)"] = {
            "latencies": trace.latencies_at(checkpoints).tolist()
        }
        # Reference run: all queries available from the start.
        run = run_policy_on_workload(
            workload, policy_name, checkpoints=checkpoints, time_budget=budget
        )
        out[policy_name] = {"latencies": run.latencies.tolist()}
    return out


def _run_with_workload_shift(
    workload: SyntheticWorkload,
    policy_name: str,
    initial_idx: np.ndarray,
    late_idx: np.ndarray,
    shift_time: float,
    budget: float,
) -> ExplorationTrace:
    """Two-phase exploration: subset first, full workload after the shift."""
    full_latencies = workload.true_latencies
    n, k = full_latencies.shape

    # Phase 1: policies cannot explore a query before it is registered, so
    # the initial queries are explored on a matrix of their own.
    sub_workload = workload.subset(initial_idx)
    sub_simulator = ExplorationSimulator(sub_workload.true_latencies)
    sub_matrix = sub_simulator.initial_matrix()
    phase1 = sub_simulator.run(
        make_policy(policy_name, sub_workload), time_budget=shift_time, matrix=sub_matrix
    )
    phase1_time = phase1.times[-1]

    # Phase 2: all queries exist; the phase-1 observations carry over.
    matrix = WorkloadMatrix(n, k)
    late_set = set(late_idx.tolist())
    for q in range(n):
        if q not in late_set:
            matrix.observe(q, 0, float(full_latencies[q, 0]))
    for local, original in enumerate(initial_idx):
        for j in range(k):
            if sub_matrix.is_observed(local, j):
                matrix.observe(int(original), j, sub_matrix.value(local, j))
            elif sub_matrix.is_censored(local, j):
                matrix.observe_censored(int(original), j, sub_matrix.value(local, j))
    for q in late_idx:
        matrix.observe(int(q), 0, float(full_latencies[q, 0]))
    phase2 = ExplorationSimulator(full_latencies).run(
        make_policy(policy_name, workload),
        time_budget=max(budget - phase1_time, 0.0),
        matrix=matrix,
    )

    # Queries not yet registered are served with the default plan, so the
    # full-workload latency at any phase-1 step is the subset's workload
    # latency plus the late queries' default latencies.
    late_default_total = float(full_latencies[sorted(late_set), 0].sum())
    return ExplorationTrace(
        times=np.concatenate([phase1.times, phase1_time + phase2.times[1:]]),
        latencies=np.concatenate([
            [float(full_latencies[:, 0].sum())],
            phase1.latencies[1:] + late_default_total,
            phase2.latencies[1:],
        ]),
        overheads=np.concatenate([phase1.overheads, phase1.overheads[-1] + phase2.overheads[1:]]),
        policy_name=policy_name,
        default_latency=workload.default_total,
    )


def stable_seed(*parts: str) -> int:
    """Derive a 32-bit seed from string parts, the same in every process
    (the builtin ``hash`` is salted for ``str`` and address-based for ``None``)."""
    digest = hashlib.sha256("::".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def figure10_incremental_drift(scale: float) -> Dict[str, Dict]:
    """Figure 10: % of queries whose optimal hint changes per data age."""
    workload = _load_workload("stack-2017", scale)
    out: Dict[str, Dict] = {"intervals": list(DRIFT_BY_AGE), "expected": [], "simulated": []}
    for interval, fraction in DRIFT_BY_AGE.items():
        shifted = apply_data_shift(
            workload, changed_fraction=fraction, growth_factor=1.0 + fraction,
            seed=SEED + stable_seed(interval) % 1000,
        )
        out["expected"].append(fraction)
        out["simulated"].append(changed_optimal_fraction(workload, shifted))
    return out


def figure11_data_shift(scale: float) -> Dict[str, Dict]:
    """Figure 11: recovery after a complete two-year data shift on Stack."""
    old_workload = _load_workload("stack-2017", scale)
    new_workload = apply_data_shift(
        old_workload, changed_fraction=0.21, growth_factor=1.26, seed=SEED,
        spec_name="stack-2019",
    )
    checkpoints = new_workload.true_latencies[:, 0].sum() * np.array(
        [0.25, 0.5, 1.0, 2.0, 4.0]
    )
    out: Dict[str, Dict] = {
        "default_total": float(new_workload.true_latencies[:, 0].sum()),
        "optimal_total": float(new_workload.true_latencies.min(axis=1).sum()),
        "checkpoints": checkpoints.tolist(),
    }

    # Baselines that start fresh on the 2019 data.
    for policy_name in ("random", "greedy", "limeqo"):
        run = run_policy_on_workload(new_workload, policy_name, checkpoints=checkpoints)
        out[policy_name] = {"latencies": run.latencies.tolist()}

    # LimeQO that explored the 2017 data first, then faces the shift.
    old_simulator = ExplorationSimulator(old_workload.true_latencies)
    old_matrix = old_simulator.initial_matrix()
    old_simulator.run(
        LimeQOPolicy(predictor=ALSPredictor()),
        time_budget=PRE_SHIFT_MULTIPLIER * old_workload.default_total,
        matrix=old_matrix,
    )
    # After the shift, previously verified hints are re-observed on the new
    # data during normal serving (not charged), then exploration continues.
    new_matrix = WorkloadMatrix(new_workload.n_queries, new_workload.n_hints)
    for q in range(new_workload.n_queries):
        new_matrix.observe(q, 0, float(new_workload.true_latencies[q, 0]))
        best = old_matrix.best_hint(q)
        if best is not None and best != 0:
            new_matrix.observe(q, best, float(new_workload.true_latencies[q, best]))
    trace = ExplorationSimulator(new_workload.true_latencies).run(
        LimeQOPolicy(predictor=ALSPredictor()),
        time_budget=float(checkpoints.max()),
        matrix=new_matrix,
    )
    out["limeqo (data shift)"] = {
        "latencies": trace.latencies_at(checkpoints).tolist(),
        # What the re-verified hints serve before any new exploration.
        "carried_over_latency": float(trace.latencies[0]),
    }
    return out


def figure14_singular_values(scale: float) -> Dict[str, List[float]]:
    """Figure 14: spectrum of the CEB matrix vs a random matrix."""
    workload = _load_workload("ceb", scale)
    matrix = workload.true_latencies
    singular = np.linalg.svd(matrix, compute_uv=False)
    rng = np.random.default_rng(SEED)
    random_matrix = rng.uniform(matrix.min(), matrix.max(), size=matrix.shape)
    random_singular = np.linalg.svd(random_matrix, compute_uv=False)
    return {
        "workload_singular_values": singular.tolist(),
        "random_singular_values": random_singular.tolist(),
        "effective_rank_95": int(
            np.searchsorted(np.cumsum(singular ** 2) / np.sum(singular ** 2), 0.95) + 1
        ),
    }


def _limeqo_variants(
    scale: float, configs: Mapping
) -> Tuple[Dict[str, object], Dict[object, Dict]]:
    """LimeQO on CEB at the paper's checkpoints, once per ``configs`` entry
    (``name -> ALSConfig``): the shared axis and totals, and the runs."""
    workload = _load_workload("ceb", scale)
    checkpoints = default_checkpoints(workload)
    axis = {
        "checkpoints": checkpoints.tolist(),
        "default_total": workload.default_total,
        "optimal_total": workload.optimal_total,
    }
    runs = {}
    for name, config in configs.items():
        run = run_policy_on_workload(workload, "limeqo", checkpoints=checkpoints, als_config=config)
        runs[name] = {"latencies": run.latencies.tolist()}
    return axis, runs


def figure15_rank_ablation(scale: float) -> Dict[str, Dict]:
    """Figure 15 (left): LimeQO's sensitivity to the rank hyper-parameter."""
    axis, runs = _limeqo_variants(scale, {rank: ALSConfig(rank=rank) for rank in RANKS})
    return {**axis, "ranks": runs}


def figure16_censored_ablation(scale: float) -> Dict[str, Dict]:
    """Figure 16: LimeQO with vs without the censored technique."""
    axis, runs = _limeqo_variants(
        scale, {"limeqo": ALSConfig(), "limeqo (no censoring)": ALSConfig(censored=False)}
    )
    return {**axis, **runs}


def figure17_mc_comparison(scale: float) -> Dict[str, Dict]:
    """Figure 17: accuracy vs wall-time of NUC, SVT and ALS on JOB, at each
    of :data:`FILL_FRACTIONS`.  A completer that refuses its input
    (:class:`~repro.errors.CompletionError`) records a NaN MSE; any other
    error propagates."""
    workload = _load_workload("job", scale)
    truth = workload.true_latencies
    rng = np.random.default_rng(SEED)
    completers = {
        "nuc": NuclearNormCompleter(),
        "svt": SVTCompleter(),
        "als": ALSCompleter(ALSConfig()),
    }
    out: Dict[str, Dict] = {name: {"fill": [], "mse": [], "seconds": []} for name in completers}
    for p in FILL_FRACTIONS:
        mask = (rng.random(truth.shape) < p).astype(float)
        # Always include the default column (it is observed in practice).
        mask[:, 0] = 1.0
        holdout = mask == 0
        observed = np.where(mask > 0, truth, 0.0)
        for name, completer in completers.items():
            start = time.perf_counter()
            try:
                completed = completer.complete(observed, mask)
            except CompletionError:  # SVT refuses an all-zero observation
                completed = None
            elapsed = time.perf_counter() - start
            mse = float("nan") if completed is None else completion_mse(truth, completed, holdout)
            out[name]["fill"].append(float(p))
            out[name]["mse"].append(float(mse))
            out[name]["seconds"].append(float(elapsed))
    return out


def figure18_bayesqo(scale: float, per_query_budget: float) -> Dict[str, Dict]:
    """Figure 18: workload-level LimeQO vs per-query BayesQO on JOB."""
    workload = _load_workload("job", scale)
    oracle = MatrixOracle(workload.true_latencies)

    # BayesQO: every query gets the same fixed budget.
    bayes_matrix = ExplorationSimulator(workload.true_latencies).initial_matrix()
    bayes = BayesQO(
        oracle,
        workload.n_hints,
        per_query_budget=per_query_budget,
        hint_factors=workload.hint_factors,
        seed=SEED,
    )
    bayes_times: List[float] = [0.0]
    bayes_latencies: List[float] = [workload.default_total]
    spent = 0.0
    for q in range(workload.n_queries):
        used, _ = bayes.optimize_query(bayes_matrix, q)
        spent += used
        bayes_times.append(spent)
        bayes_latencies.append(bayes_matrix.workload_latency())
    total_budget = max(spent, 1e-9)

    # LimeQO gets the same total offline time, allocated where it helps, in
    # batches of five queries.
    run = run_policy_on_workload(
        workload,
        "limeqo",
        checkpoints=np.linspace(total_budget / 8, total_budget, 8),
        time_budget=total_budget,
        batch_size=5,
    )
    return {
        "default_total": workload.default_total,
        "optimal_total": workload.optimal_total,
        "total_budget": total_budget,
        "bayesqo": {"times": bayes_times, "latencies": bayes_latencies},
        "limeqo": {
            "times": run.trace.times.tolist(),
            "latencies": run.trace.latencies.tolist(),
            "checkpoints": run.checkpoints.tolist(),
            "checkpoint_latencies": run.latencies.tolist(),
        },
    }
