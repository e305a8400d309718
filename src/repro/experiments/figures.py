"""One function per paper table / figure.

Every function returns plain dictionaries of numbers (no plotting), sized
by a ``scale`` argument so that the benchmark harness can regenerate the
figures quickly on a laptop while tests use even smaller scales.  Absolute
numbers will differ from the paper (the workloads are calibrated synthetic
matrices, not the authors' PostgreSQL testbed), but the *shapes* -- which
method wins, by roughly what factor, and where the crossovers fall -- are
what these functions reproduce.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import ALSConfig, ExplorationConfig, TCNNConfig
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
from ..core.explorer import MatrixOracle, OfflineExplorer
from ..baselines.bayesqo import BayesQO
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
    FAST_TCNN_CONFIG,
    default_checkpoints,
    make_policy,
    run_policy_on_workload,
)

DEFAULT_POLICIES = ("qo-advisor", "bao-cache", "random", "greedy", "limeqo", "limeqo+")
LINEAR_POLICIES = ("qo-advisor", "random", "greedy", "limeqo")
#: LimeQO+'s measured speedup on an A100 GPU in the paper (3600 s -> 660 s).
GPU_SPEEDUP_ESTIMATE = 5.45
#: Figure 9's shift time as a multiple of the default workload time: the
#: paper adds the remaining queries at the 2-hour mark of the 2.94-hour CEB
#: workload.
SHIFT_AT_MULTIPLIER = 0.68


def _load_workload(name: str, scale: float, seed: int) -> SyntheticWorkload:
    spec = get_spec(name)
    if scale < 1.0:
        spec = spec.scaled(scale)
    return generate_workload(spec, seed=seed)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def table1_workload_summary(scale: float = 1.0, seed: int = 0) -> Dict[str, Dict]:
    """Table 1: per-workload Default and Optimal totals plus headroom."""
    out: Dict[str, Dict] = {}
    for spec in (JOB_SPEC, CEB_SPEC, STACK_SPEC, DSB_SPEC):
        scaled = spec if scale >= 1.0 else spec.scaled(scale)
        workload = generate_workload(scaled, seed=seed)
        out[spec.name] = {
            "n_queries": workload.n_queries,
            "n_hints": workload.n_hints,
            "default_total_s": workload.default_total,
            "optimal_total_s": workload.optimal_total,
            "headroom": workload.headroom,
            "paper_default_s": spec.default_total * (scaled.n_queries / spec.n_queries),
            "paper_optimal_s": spec.optimal_total * (scaled.n_queries / spec.n_queries),
            "exhaustive_exploration_s": workload.exhaustive_exploration_time(),
        }
    return out


# ---------------------------------------------------------------------------
# Figure 5 / Figure 6
# ---------------------------------------------------------------------------
def figure5_performance(
    workload_names: Sequence[str] = ("ceb", "job", "stack", "dsb"),
    scale: float = 0.05,
    policies: Sequence[str] = DEFAULT_POLICIES,
    batch_size: int = 10,
    seed: int = 0,
    tcnn_config: Optional[TCNNConfig] = None,
    max_steps: Optional[int] = None,
) -> Dict[str, Dict]:
    """Figure 5: total latency at [1/4, 1/2, 1, 2, 4] x default time."""
    results: Dict[str, Dict] = {}
    for name in workload_names:
        workload = _load_workload(name, scale, seed)
        checkpoints = default_checkpoints(workload)
        per_policy = {}
        for policy_name in policies:
            run = run_policy_on_workload(
                workload,
                policy_name,
                checkpoints=checkpoints,
                batch_size=batch_size,
                seed=seed,
                tcnn_config=tcnn_config or FAST_TCNN_CONFIG,
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


def figure6_ceb_curves(
    scale: float = 0.05,
    policies: Sequence[str] = DEFAULT_POLICIES,
    budget_multiplier: float = 2.0,
    batch_size: int = 10,
    seed: int = 0,
    tcnn_config: Optional[TCNNConfig] = None,
) -> Dict[str, Dict]:
    """Figure 6: latency-vs-exploration-time curves on CEB."""
    workload = _load_workload("ceb", scale, seed)
    budget = budget_multiplier * workload.default_total
    curves: Dict[str, Dict] = {}
    for policy_name in policies:
        run = run_policy_on_workload(
            workload,
            policy_name,
            checkpoints=[budget],
            time_budget=budget,
            batch_size=batch_size,
            seed=seed,
            tcnn_config=tcnn_config or FAST_TCNN_CONFIG,
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


# ---------------------------------------------------------------------------
# Figure 7 / Figure 13 (overhead)
# ---------------------------------------------------------------------------
def figure7_overhead(
    scale: float = 0.05,
    batch_size: int = 10,
    seed: int = 0,
    budget_multiplier: float = 2.0,
    tcnn_config: Optional[TCNNConfig] = None,
) -> Dict[str, Dict]:
    """Figure 7: cumulative model overhead for LimeQO vs LimeQO+.

    The paper also measures LimeQO+ on an A100 GPU; no GPU is available
    here, so that series is the measured CPU overhead divided by the
    paper's :data:`GPU_SPEEDUP_ESTIMATE`.
    """
    workload = _load_workload("ceb", scale, seed)
    budget = budget_multiplier * workload.default_total
    checkpoints = np.linspace(budget / 4, budget, 4)
    out: Dict[str, Dict] = {"checkpoints": checkpoints.tolist()}
    for policy_name in ("limeqo", "limeqo+"):
        run = run_policy_on_workload(
            workload,
            policy_name,
            checkpoints=checkpoints,
            time_budget=budget,
            batch_size=batch_size,
            seed=seed,
            tcnn_config=tcnn_config or FAST_TCNN_CONFIG,
        )
        out[policy_name] = {"overheads": run.overheads.tolist()}
    out["limeqo+(gpu-estimate)"] = {
        "overheads": (
            np.asarray(out["limeqo+"]["overheads"]) / GPU_SPEEDUP_ESTIMATE
        ).tolist()
    }
    measured_plus = out["limeqo+"]["overheads"][-1]
    measured_linear = max(out["limeqo"]["overheads"][-1], 1e-9)
    out["overhead_ratio"] = measured_plus / measured_linear
    return out


def figure13_overhead_tcnn(
    scale: float = 0.03,
    batch_size: int = 10,
    seed: int = 0,
    budget_multiplier: float = 1.0,
    tcnn_config: Optional[TCNNConfig] = None,
) -> Dict[str, Dict]:
    """Figure 13: overhead of the pure TCNN vs the transductive TCNN."""
    workload = _load_workload("ceb", scale, seed)
    budget = budget_multiplier * workload.default_total
    checkpoints = np.linspace(budget / 4, budget, 4)
    out: Dict[str, Dict] = {"checkpoints": checkpoints.tolist()}
    for policy_name in ("tcnn", "limeqo+"):
        run = run_policy_on_workload(
            workload,
            policy_name,
            checkpoints=checkpoints,
            time_budget=budget,
            batch_size=batch_size,
            seed=seed,
            tcnn_config=tcnn_config or FAST_TCNN_CONFIG,
        )
        out[policy_name] = {"overheads": run.overheads.tolist()}
    return out


# ---------------------------------------------------------------------------
# Figure 8 (ETL query) and Figure 12 (TCNN vs LimeQO+)
# ---------------------------------------------------------------------------
def figure8_etl(
    scale: float = 0.03,
    batch_size: int = 10,
    seed: int = 0,
    budget_multiplier: float = 2.0,
) -> Dict[str, Dict]:
    """Figure 8: Greedy wastes time on an ETL query, LimeQO ignores it."""
    workload = _load_workload("stack", scale, seed)
    # The paper's ETL query (576.5 s) dwarfs the scaled workload; keep the
    # same *relative* weight: roughly 10% of the default total.
    workload = add_etl_query(workload, latency=0.1 * workload.default_total, seed=seed)
    budget = budget_multiplier * workload.default_total
    checkpoints = np.linspace(budget / 8, budget, 8)
    out: Dict[str, Dict] = {
        "default_total": workload.default_total,
        "checkpoints": checkpoints.tolist(),
    }
    for policy_name in ("greedy", "limeqo"):
        run = run_policy_on_workload(
            workload,
            policy_name,
            checkpoints=checkpoints,
            time_budget=budget,
            batch_size=batch_size,
            seed=seed,
        )
        out[policy_name] = {"latencies": run.latencies.tolist()}
    return out


def figure12_tcnn_vs_limeqo_plus(
    scale: float = 0.03,
    batch_size: int = 10,
    seed: int = 0,
    budget_multiplier: float = 1.0,
    tcnn_config: Optional[TCNNConfig] = None,
) -> Dict[str, Dict]:
    """Figure 12: the embeddings make LimeQO+ beat the pure TCNN."""
    workload = _load_workload("ceb", scale, seed)
    budget = budget_multiplier * workload.default_total
    checkpoints = np.linspace(budget / 4, budget, 4)
    out: Dict[str, Dict] = {
        "default_total": workload.default_total,
        "optimal_total": workload.optimal_total,
        "checkpoints": checkpoints.tolist(),
    }
    for policy_name in ("tcnn", "limeqo+"):
        run = run_policy_on_workload(
            workload,
            policy_name,
            checkpoints=checkpoints,
            time_budget=budget,
            batch_size=batch_size,
            seed=seed,
            tcnn_config=tcnn_config or FAST_TCNN_CONFIG,
        )
        out[policy_name] = {"latencies": run.latencies.tolist()}
    return out


# ---------------------------------------------------------------------------
# Figure 9 (workload shift)
# ---------------------------------------------------------------------------
def figure9_workload_shift(
    scale: float = 0.05,
    batch_size: int = 10,
    seed: int = 0,
    initial_fraction: float = 0.7,
    budget_multiplier: float = 2.0,
) -> Dict[str, Dict]:
    """Figure 9: 30% of the queries arrive mid-exploration, at
    :data:`SHIFT_AT_MULTIPLIER` times the default workload time."""
    workload = _load_workload("ceb", scale, seed)
    initial_idx, late_idx = split_for_workload_shift(
        workload, initial_fraction=initial_fraction, seed=seed
    )
    shift_time = SHIFT_AT_MULTIPLIER * workload.default_total
    budget = budget_multiplier * workload.default_total
    checkpoints = np.linspace(budget / 8, budget, 8)

    out: Dict[str, Dict] = {
        "default_total": workload.default_total,
        "optimal_total": workload.optimal_total,
        "shift_time": shift_time,
        "checkpoints": checkpoints.tolist(),
    }
    for policy_name in ("limeqo", "greedy"):
        trace = _run_with_workload_shift(
            workload, policy_name, initial_idx, late_idx, shift_time, budget,
            batch_size, seed,
        )
        out[policy_name + " (with shift)"] = {
            "latencies": trace.latencies_at(checkpoints).tolist()
        }
        # Reference run: all queries available from the start.
        run = run_policy_on_workload(
            workload, policy_name, checkpoints=checkpoints, time_budget=budget,
            batch_size=batch_size, seed=seed,
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
    batch_size: int,
    seed: int,
) -> ExplorationTrace:
    """Two-phase exploration: subset first, full workload after the shift."""
    config = ExplorationConfig(batch_size=batch_size, seed=seed)
    full_latencies = workload.true_latencies
    n, k = full_latencies.shape

    # Phase 1: only the initial queries exist.
    matrix = WorkloadMatrix(n, k)
    late_set = set(late_idx.tolist())
    for q in range(n):
        if q not in late_set:
            matrix.observe(q, 0, float(full_latencies[q, 0]))
    # Rows for late queries stay fully unobserved, and the oracle's latencies
    # exist, but policies cannot benefit from exploring them before they are
    # registered; we exclude them by masking them as "observed" at +inf-free
    # default only after the shift.  To keep the phase-1 search honest we run
    # it on the subset matrix and copy observations over afterwards.
    sub_workload = workload.subset(initial_idx)
    sub_simulator = ExplorationSimulator(sub_workload.true_latencies, config=config)
    sub_matrix = sub_simulator.initial_matrix()
    policy = make_policy(policy_name, sub_workload)
    sub_oracle = MatrixOracle(sub_workload.true_latencies)
    sub_explorer = OfflineExplorer(sub_matrix, policy, sub_oracle, config)
    sub_explorer.run(time_budget=shift_time)

    # Queries not yet registered are served with the default plan, so the
    # full-workload latency at any phase-1 step is the subset's workload
    # latency plus the late queries' default latencies.
    late_default_total = float(full_latencies[sorted(late_set), 0].sum())
    times: List[float] = [0.0]
    latencies: List[float] = [float(full_latencies[:, 0].sum())]
    overheads: List[float] = [0.0]
    for step in sub_explorer.steps:
        times.append(step.cumulative_exploration_time)
        latencies.append(step.workload_latency + late_default_total)
        overheads.append(step.overhead_seconds)
    phase1_time = sub_explorer.cumulative_exploration_time
    phase1_overhead = policy.overhead_seconds

    # Phase 2: all queries exist; copy phase-1 observations into a full matrix.
    for local, original in enumerate(initial_idx):
        for j in range(k):
            if sub_matrix.is_observed(local, j):
                matrix.observe(int(original), j, sub_matrix.value(local, j))
            elif sub_matrix.is_censored(local, j):
                matrix.observe_censored(int(original), j, sub_matrix.value(local, j))
    for q in late_idx:
        matrix.observe(int(q), 0, float(full_latencies[q, 0]))

    policy2 = make_policy(policy_name, workload)
    oracle = MatrixOracle(full_latencies)
    explorer = OfflineExplorer(matrix, policy2, oracle, config)
    explorer.run(time_budget=max(budget - phase1_time, 0.0))
    for step in explorer.steps:
        times.append(phase1_time + step.cumulative_exploration_time)
        latencies.append(step.workload_latency)
        overheads.append(phase1_overhead + step.overhead_seconds)
    return ExplorationTrace(
        times=np.asarray(times),
        latencies=np.asarray(latencies),
        overheads=np.asarray(overheads),
        policy_name=policy_name,
        default_latency=workload.default_total,
    )


# ---------------------------------------------------------------------------
# Figure 10 / Figure 11 (data drift)
# ---------------------------------------------------------------------------
def stable_seed(*parts: str) -> int:
    """Derive a 32-bit seed from string parts, the same in every process
    (the builtin ``hash`` is salted for ``str`` and address-based for ``None``)."""
    digest = hashlib.sha256("::".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def figure10_incremental_drift(
    scale: float = 0.05, seed: int = 0
) -> Dict[str, Dict]:
    """Figure 10: % of queries whose optimal hint changes per data age."""
    workload = _load_workload("stack-2017", scale, seed)
    out: Dict[str, Dict] = {"intervals": list(DRIFT_BY_AGE), "expected": [], "simulated": []}
    for interval, fraction in DRIFT_BY_AGE.items():
        shifted = apply_data_shift(
            workload, changed_fraction=fraction, growth_factor=1.0 + fraction,
            seed=seed + stable_seed(interval) % 1000,
        )
        out["expected"].append(fraction)
        out["simulated"].append(changed_optimal_fraction(workload, shifted))
    return out


def figure11_data_shift(
    scale: float = 0.05,
    batch_size: int = 10,
    seed: int = 0,
    pre_shift_multiplier: float = 2.0,
) -> Dict[str, Dict]:
    """Figure 11: recovery after a complete two-year data shift on Stack."""
    old_workload = _load_workload("stack-2017", scale, seed)
    new_workload = apply_data_shift(
        old_workload, changed_fraction=0.21, growth_factor=1.26, seed=seed,
        spec_name="stack-2019",
    )
    config = ExplorationConfig(batch_size=batch_size, seed=seed)
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
        run = run_policy_on_workload(
            new_workload, policy_name, checkpoints=checkpoints,
            batch_size=batch_size, seed=seed,
        )
        out[policy_name] = {"latencies": run.latencies.tolist()}

    # LimeQO that explored the 2017 data first, then faces the shift.
    old_simulator = ExplorationSimulator(old_workload.true_latencies, config=config)
    old_matrix = old_simulator.initial_matrix()
    old_policy = LimeQOPolicy(predictor=ALSPredictor())
    old_oracle = MatrixOracle(old_workload.true_latencies)
    OfflineExplorer(old_matrix, old_policy, old_oracle, config).run(
        time_budget=pre_shift_multiplier * old_workload.default_total
    )
    # After the shift, previously verified hints are re-observed on the new
    # data during normal serving (not charged), then exploration continues.
    new_matrix = WorkloadMatrix(new_workload.n_queries, new_workload.n_hints)
    for q in range(new_workload.n_queries):
        new_matrix.observe(q, 0, float(new_workload.true_latencies[q, 0]))
        best = old_matrix.best_hint(q)
        if best is not None and best != 0:
            new_matrix.observe(q, best, float(new_workload.true_latencies[q, best]))
    shift_policy = LimeQOPolicy(predictor=ALSPredictor())
    shift_oracle = MatrixOracle(new_workload.true_latencies)
    shift_explorer = OfflineExplorer(new_matrix, shift_policy, shift_oracle, config)
    # What the re-verified hints serve before any new exploration: the t = 0
    # point of the shifted trace.
    carried_over = new_matrix.workload_latency()
    shift_explorer.run(time_budget=float(checkpoints.max()))
    steps = shift_explorer.steps
    trace = ExplorationTrace(
        times=np.asarray([0.0] + [s.cumulative_exploration_time for s in steps]),
        latencies=np.asarray([carried_over] + [s.workload_latency for s in steps]),
        overheads=np.asarray([0.0] + [s.overhead_seconds for s in steps]),
        default_latency=carried_over,
    )
    out["limeqo (data shift)"] = {
        "latencies": trace.latencies_at(checkpoints).tolist(),
        "carried_over_latency": carried_over,
    }
    return out


# ---------------------------------------------------------------------------
# Figure 14 (singular values), Figure 15 (rank), Figure 16 (censoring)
# ---------------------------------------------------------------------------
def figure14_singular_values(scale: float = 1.0, seed: int = 0) -> Dict[str, List[float]]:
    """Figure 14: spectrum of the CEB matrix vs a random matrix."""
    workload = _load_workload("ceb", scale, seed)
    matrix = workload.true_latencies
    singular = np.linalg.svd(matrix, compute_uv=False)
    rng = np.random.default_rng(seed)
    random_matrix = rng.uniform(matrix.min(), matrix.max(), size=matrix.shape)
    random_singular = np.linalg.svd(random_matrix, compute_uv=False)
    return {
        "workload_singular_values": singular.tolist(),
        "random_singular_values": random_singular.tolist(),
        "effective_rank_95": int(
            np.searchsorted(np.cumsum(singular ** 2) / np.sum(singular ** 2), 0.95) + 1
        ),
    }


def figure15_rank_ablation(
    ranks: Sequence[int] = (1, 2, 3, 5, 7, 9),
    scale: float = 0.05,
    batch_size: int = 10,
    seed: int = 0,
) -> Dict[str, Dict]:
    """Figure 15 (left): LimeQO's sensitivity to the rank hyper-parameter."""
    workload = _load_workload("ceb", scale, seed)
    checkpoints = default_checkpoints(workload)
    out: Dict[str, Dict] = {
        "checkpoints": checkpoints.tolist(),
        "default_total": workload.default_total,
        "optimal_total": workload.optimal_total,
        "ranks": {},
    }
    for rank in ranks:
        run = run_policy_on_workload(
            workload,
            "limeqo",
            checkpoints=checkpoints,
            batch_size=batch_size,
            seed=seed,
            als_config=ALSConfig(rank=int(rank)),
        )
        out["ranks"][int(rank)] = {"latencies": run.latencies.tolist()}
    return out


def figure16_censored_ablation(
    scale: float = 0.05,
    batch_size: int = 10,
    seed: int = 0,
    include_neural: bool = False,
) -> Dict[str, Dict]:
    """Figure 16: with vs without the censored technique."""
    workload = _load_workload("ceb", scale, seed)
    checkpoints = default_checkpoints(workload)
    out: Dict[str, Dict] = {
        "checkpoints": checkpoints.tolist(),
        "default_total": workload.default_total,
        "optimal_total": workload.optimal_total,
    }
    for censored in (True, False):
        run = run_policy_on_workload(
            workload,
            "limeqo",
            checkpoints=checkpoints,
            batch_size=batch_size,
            seed=seed,
            als_config=ALSConfig(censored=censored),
        )
        key = "limeqo" if censored else "limeqo (no censoring)"
        out[key] = {"latencies": run.latencies.tolist()}
    if include_neural:
        for censored in (True, False):
            run = run_policy_on_workload(
                workload,
                "limeqo+",
                checkpoints=checkpoints,
                batch_size=batch_size,
                seed=seed,
                tcnn_config=replace(FAST_TCNN_CONFIG, censored=censored),
            )
            key = "limeqo+" if censored else "limeqo+ (no censoring)"
            out[key] = {"latencies": run.latencies.tolist()}
    return out


# ---------------------------------------------------------------------------
# Figure 17 (matrix-completion techniques) and Figure 18 (BayesQO)
# ---------------------------------------------------------------------------
def figure17_mc_comparison(
    fill_fractions: Sequence[float] = (0.1, 0.15, 0.2, 0.25, 0.3),
    scale: float = 1.0,
    seed: int = 0,
) -> Dict[str, Dict]:
    """Figure 17: accuracy vs wall-time of NUC, SVT and ALS on JOB."""
    workload = _load_workload("job", scale, seed)
    truth = workload.true_latencies
    rng = np.random.default_rng(seed)
    completers = {
        "nuc": NuclearNormCompleter(),
        "svt": SVTCompleter(),
        "als": ALSCompleter(ALSConfig()),
    }
    out: Dict[str, Dict] = {name: {"fill": [], "mse": [], "seconds": []} for name in completers}
    for p in fill_fractions:
        mask = (rng.random(truth.shape) < p).astype(float)
        # Always include the default column (it is observed in practice).
        mask[:, 0] = 1.0
        holdout = mask == 0
        observed = np.where(mask > 0, truth, 0.0)
        for name, completer in completers.items():
            start = time.perf_counter()
            try:
                completed = completer.complete(observed, mask)
                elapsed = time.perf_counter() - start
                mse = completion_mse(truth, completed, holdout)
            except Exception:  # noqa: BLE001 - SVT legitimately fails at low fill
                elapsed = time.perf_counter() - start
                mse = float("nan")
            out[name]["fill"].append(float(p))
            out[name]["mse"].append(float(mse))
            out[name]["seconds"].append(float(elapsed))
    return out


def figure18_bayesqo(
    scale: float = 1.0,
    per_query_budget: float = 3.0,
    batch_size: int = 5,
    seed: int = 0,
) -> Dict[str, Dict]:
    """Figure 18: workload-level LimeQO vs per-query BayesQO on JOB."""
    workload = _load_workload("job", scale, seed)
    oracle = MatrixOracle(workload.true_latencies)

    # BayesQO: every query gets the same fixed budget.
    bayes_matrix = WorkloadMatrix(workload.n_queries, workload.n_hints)
    for q in range(workload.n_queries):
        bayes_matrix.observe(q, 0, float(workload.true_latencies[q, 0]))
    bayes = BayesQO(
        oracle,
        workload.n_hints,
        per_query_budget=per_query_budget,
        hint_factors=workload.hint_factors,
        seed=seed,
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

    # LimeQO gets the same total offline time, allocated where it helps.
    run = run_policy_on_workload(
        workload,
        "limeqo",
        checkpoints=np.linspace(total_budget / 8, total_budget, 8),
        time_budget=total_budget,
        batch_size=batch_size,
        seed=seed,
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
