"""Baseline optimizers the paper compares against.

* :mod:`repro.baselines.bayesqo` -- per-query Bayesian-optimisation style
  search with a fixed time budget per query (Figure 18's comparison).
"""

from .bayesqo import BayesQO

__all__ = [
    "BayesQO",
]
