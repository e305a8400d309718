"""Plan features for the TCNN.

The neural method (LimeQO+) needs each workload-matrix cell to carry a
featurised query-plan tree.  :class:`~repro.plans.featurize.SyntheticPlanFeatureStore`
derives pseudo-plans from a workload's latent query/hint factors and packs
them into padded tensors (:class:`~repro.plans.featurize.TreeBatch`) for
tree convolution.
"""

from .featurize import (
    NODE_FEATURE_DIM,
    SyntheticPlanFeatureStore,
    TreeBatch,
)

__all__ = [
    "NODE_FEATURE_DIM",
    "SyntheticPlanFeatureStore",
    "TreeBatch",
]
