"""LimeQO's core: the workload matrix, matrix completion, and exploration.

This package implements the paper's primary contribution:

* :mod:`repro.core.workload_matrix` -- the partially observed workload
  matrix with censored (timed-out) observations,
* :mod:`repro.core.als` -- censored alternating least squares (Algorithm 2),
* :mod:`repro.core.matrix_completion` -- ALS / SVT / nuclear-norm completers
  compared in Figure 17,
* :mod:`repro.core.predictors` -- the pluggable predictive models (linear
  ALS, pure TCNN, transductive TCNN),
* :mod:`repro.core.policies` -- exploration policies (Random, Greedy,
  QO-Advisor, Bao-Cache, LimeQO, LimeQO+),
* :mod:`repro.core.explorer` / :mod:`repro.core.simulation` -- Algorithm 1's
  offline exploration loop and its simulated clock,
* :mod:`repro.core.plan_cache` / :mod:`repro.core.limeqo` -- the online,
  no-regression serving path and the top-level facade.
"""

from .als import CensoredALSResult, censored_als
from .explorer import ExplorationStep, MatrixOracle, OfflineExplorer
from .limeqo import LimeQO
from .matrix_completion import (
    ALSCompleter,
    MatrixCompleter,
    NuclearNormCompleter,
    SVTCompleter,
    completion_mse,
)
from .plan_cache import CacheDecision, CacheSnapshot, PlanCache
from .policies import (
    BaoCachePolicy,
    ExplorationPolicy,
    GreedyPolicy,
    LimeQOPlusPolicy,
    LimeQOPolicy,
    QOAdvisorPolicy,
    RandomPolicy,
)
from .predictors import ALSPredictor, Predictor, TCNNPredictor
from .simulation import ExplorationSimulator, ExplorationTrace
from .workload_matrix import WorkloadMatrix

__all__ = [
    "CensoredALSResult",
    "censored_als",
    "ExplorationStep",
    "MatrixOracle",
    "OfflineExplorer",
    "LimeQO",
    "ALSCompleter",
    "MatrixCompleter",
    "NuclearNormCompleter",
    "SVTCompleter",
    "completion_mse",
    "CacheDecision",
    "CacheSnapshot",
    "PlanCache",
    "BaoCachePolicy",
    "ExplorationPolicy",
    "GreedyPolicy",
    "LimeQOPlusPolicy",
    "LimeQOPolicy",
    "QOAdvisorPolicy",
    "RandomPolicy",
    "ALSPredictor",
    "Predictor",
    "TCNNPredictor",
    "ExplorationSimulator",
    "ExplorationTrace",
    "WorkloadMatrix",
]
