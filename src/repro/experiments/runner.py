"""Shared experiment machinery: policy factory and checkpointed runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import ALSConfig, ExplorationConfig, TCNNConfig
from ..core.policies import (
    BaoCachePolicy,
    ExplorationPolicy,
    GreedyPolicy,
    LimeQOPlusPolicy,
    LimeQOPolicy,
    QOAdvisorPolicy,
    RandomPolicy,
)
from ..core.predictors import ALSPredictor, TCNNPredictor, TransductiveTCNNPredictor
from ..core.simulation import ExplorationSimulator, ExplorationTrace
from ..errors import ExperimentError
from ..workloads.matrices import SyntheticWorkload

POLICY_NAMES = (
    "random",
    "greedy",
    "qo-advisor",
    "bao-cache",
    "limeqo",
    "limeqo+",
)

# A deliberately small TCNN configuration used by the benchmark harness so
# the neural method stays tractable on CPU-only numpy.
FAST_TCNN_CONFIG = TCNNConfig(
    channels=(16, 8),
    hidden_units=(16,),
    dropout=0.3,
    learning_rate=2e-3,
    batch_size=64,
    max_epochs=12,
    convergence_window=4,
)


def make_policy(
    name: str,
    workload: SyntheticWorkload,
    als_config: Optional[ALSConfig] = None,
    tcnn_config: Optional[TCNNConfig] = None,
) -> ExplorationPolicy:
    """Build one of the six compared exploration policies for a workload."""
    name = name.lower()
    als_config = als_config or ALSConfig()
    tcnn_config = tcnn_config or FAST_TCNN_CONFIG
    if name == "random":
        return RandomPolicy()
    if name == "greedy":
        return GreedyPolicy()
    if name == "qo-advisor":
        return QOAdvisorPolicy(workload.optimizer_costs)
    if name == "bao-cache":
        predictor = TCNNPredictor(workload.feature_store(), tcnn_config)
        return BaoCachePolicy(predictor)
    if name == "limeqo":
        return LimeQOPolicy(predictor=ALSPredictor(als_config))
    if name == "tcnn":
        # Pure TCNN ablation (Figure 12): Algorithm 1's selection, but the
        # predictive model has no query/hint embeddings.
        predictor = TCNNPredictor(workload.feature_store(), tcnn_config)
        return LimeQOPolicy(predictor=predictor)
    if name == "limeqo+":
        predictor = TransductiveTCNNPredictor(workload.feature_store(), tcnn_config)
        return LimeQOPlusPolicy(predictor)
    raise ExperimentError(
        f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
    )


@dataclass
class CheckpointedRun:
    """One policy's latencies sampled at fixed exploration-time checkpoints."""

    policy: str
    checkpoints: np.ndarray
    latencies: np.ndarray
    overheads: np.ndarray
    trace: ExplorationTrace


def default_checkpoints(workload: SyntheticWorkload) -> np.ndarray:
    """The paper's x-axis: [1/4, 1/2, 1, 2, 4] x the default workload time."""
    return workload.default_total * np.array([0.25, 0.5, 1.0, 2.0, 4.0])


def run_policy_on_workload(
    workload: SyntheticWorkload,
    policy_name: str,
    checkpoints: Sequence[float],
    batch_size: int = 10,
    als_config: Optional[ALSConfig] = None,
    tcnn_config: Optional[TCNNConfig] = None,
    time_budget: Optional[float] = None,
    max_steps: Optional[int] = None,
) -> CheckpointedRun:
    """Run one policy on one workload and sample it at the checkpoints."""
    checkpoints = np.asarray(checkpoints, dtype=float)
    budget = float(time_budget) if time_budget is not None else float(checkpoints.max())
    config = ExplorationConfig(batch_size=batch_size)
    simulator = ExplorationSimulator(workload.true_latencies, config=config)
    policy = make_policy(
        policy_name, workload, als_config=als_config, tcnn_config=tcnn_config
    )
    trace = simulator.run(policy, time_budget=budget, max_steps=max_steps)
    latencies = trace.latencies_at(checkpoints)
    overheads = np.array([trace.overhead_at(t) for t in checkpoints])
    return CheckpointedRun(
        policy=policy_name,
        checkpoints=checkpoints,
        latencies=latencies,
        overheads=overheads,
        trace=trace,
    )
