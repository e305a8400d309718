"""Calibrated synthetic workload matrices.

The paper's large workloads (CEB: 3133 x 49, Stack: 6191 x 49) cannot be
re-measured here, so this module generates latency matrices with the same
three properties the paper's methods rely on:

1. **low rank** -- latencies are products of non-negative latent query and
   hint factors plus noise (Figure 14's spectrum),
2. **heavy tails** -- per-query scales are log-normal, so a few queries
   dominate the workload, and
3. **calibrated headroom** -- the default column sums to the paper's
   "Default" total and the row minima sum to the paper's "Optimal" total
   (Table 1), matched by a per-row power transform found by bisection.

A fraction of queries is "incompressible" (ETL-like): the default hint is
already optimal for them, which is what defeats the Greedy baseline.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Union

import numpy as np

from ..errors import WorkloadError
from ..plans.featurize import SyntheticPlanFeatureStore
from .spec import WorkloadSpec


class SyntheticWorkload:
    """A fully known workload: ground-truth latencies plus metadata.

    ``optimizer_costs`` is the cost array or, from :func:`generate_workload`,
    the bit-generator state its noise comes from.  Only QO-Advisor and the
    workloads derived from this one read the costs, so they are drawn on
    first read and kept: the same ufuncs over the same draws as an eager
    draw, so the same bytes.  A generated workload's latencies are
    read-only, so that read sees them as they were generated.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        true_latencies: np.ndarray,
        query_factors: np.ndarray,
        hint_factors: np.ndarray,
        optimizer_costs: Union[np.ndarray, Dict],
        seed: int,
    ) -> None:
        if true_latencies.shape != (spec.n_queries, spec.n_hints):
            raise WorkloadError(
                f"latency matrix shape {true_latencies.shape} does not match "
                f"spec {spec.name!r}"
            )
        self.spec = spec
        self.true_latencies = true_latencies
        self.query_factors = query_factors
        self.hint_factors = hint_factors
        self._costs = optimizer_costs
        self.seed = seed

    @property
    def optimizer_costs(self) -> np.ndarray:
        """Optimizer cost estimates: correlated with latency but noisy -- the
        QO-Advisor baseline ranks unexplored cells by these."""
        if isinstance(self._costs, dict):
            rng = np.random.default_rng(0)
            rng.bit_generator.state = self._costs  # the seed above is overwritten
            noise = rng.lognormal(mean=0.0, sigma=0.8, size=self.true_latencies.shape)
            costs = np.power(self.true_latencies, 0.8)
            costs *= noise
            costs *= 1e4
            self._costs = costs
        return self._costs

    # -- reference quantities -------------------------------------------------
    @property
    def n_queries(self) -> int:
        """Number of rows."""
        return self.true_latencies.shape[0]

    @property
    def n_hints(self) -> int:
        """Number of columns."""
        return self.true_latencies.shape[1]

    @property
    def default_total(self) -> float:
        """Total latency under the default hint (column 0)."""
        return float(self.true_latencies[:, 0].sum())

    @property
    def optimal_total(self) -> float:
        """Total latency under the per-query optimal hint."""
        return float(self.true_latencies.min(axis=1).sum())

    @property
    def headroom(self) -> float:
        """Default / Optimal."""
        return self.default_total / self.optimal_total

    def exhaustive_exploration_time(self) -> float:
        """Time to execute every (query, hint) cell once."""
        return float(self.true_latencies.sum())

    def optimal_hints(self) -> np.ndarray:
        """Per-query argmin over hints."""
        return self.true_latencies.argmin(axis=1)

    # -- derived artefacts -----------------------------------------------------
    def feature_store(self, noise: float = 0.05) -> SyntheticPlanFeatureStore:
        """Pseudo plan features for the neural method (LimeQO+)."""
        return SyntheticPlanFeatureStore(
            self.query_factors, self.hint_factors, noise=noise, seed=self.seed
        )

    def subset(self, query_indices) -> "SyntheticWorkload":
        """A workload restricted to the given query rows (workload shift)."""
        query_indices = np.asarray(query_indices, dtype=int)
        spec = replace(
            self.spec,
            name=f"{self.spec.name}-subset",
            n_queries=len(query_indices),
            default_total=float(self.true_latencies[query_indices, 0].sum()),
            optimal_total=float(self.true_latencies[query_indices].min(axis=1).sum()),
        )
        return SyntheticWorkload(
            spec=spec,
            true_latencies=self.true_latencies[query_indices].copy(),
            query_factors=self.query_factors[query_indices].copy(),
            hint_factors=self.hint_factors.copy(),
            optimizer_costs=self.optimizer_costs[query_indices].copy(),
            seed=self.seed,
        )


def _calibrate_headroom(matrix: np.ndarray, target_optimal: float) -> np.ndarray:
    """Power-transform non-default columns so row minima sum to the target.

    The transform ``w_ij -> d_i * (w_ij / d_i) ** gamma`` keeps the default
    column fixed (ratio 1), is monotone in each entry, and shrinks or grows
    each row's improvement potential as ``gamma`` moves away from 1.  We
    bisect on ``gamma``.

    For ``d > 0`` and ``gamma > 0`` the map ``x -> d * x ** gamma`` is
    monotone, so a row's transformed minimum is the transform of its
    smallest ratio: each probe is one pass over the ``n`` row-best ratios,
    and only the final transform touches all ``n x k`` cells.  A target
    outside what ``gamma``'s bracket can reach raises :class:`WorkloadError`
    naming the reachable headroom range.
    """
    default = matrix[:, 0:1]
    ratios = matrix / default
    row_default = matrix[:, 0]
    best = ratios.min(axis=1)

    def optimal_total(gamma: float) -> float:
        return float((row_default * np.power(best, gamma)).sum())

    low, high = 0.02, 8.0
    # Optimal total decreases as gamma grows (ratios < 1 shrink further).
    most, least = optimal_total(low), optimal_total(high)
    if not least <= target_optimal <= most:
        default_total = float(row_default.sum())
        raise WorkloadError(
            f"headroom {default_total / target_optimal:.6g}x is unreachable: "
            f"this matrix calibrates to {default_total / most:.6g}x "
            f"... {default_total / least:.6g}x"
        )
    for _ in range(80):
        mid = 0.5 * (low + high)
        if mid == low or mid == high:
            # Adjacent floats: whichever way this probe went, every later
            # midpoint -- and so the answer -- would be ``mid``.
            break
        if optimal_total(mid) > target_optimal:
            low = mid
        else:
            high = mid
    else:
        mid = 0.5 * (low + high)
    np.power(ratios, mid, out=ratios)
    ratios *= default
    return ratios


#: Multiplicative log-normal noise applied on top of the low-rank structure
#: (keeps the matrix *approximately* low rank, as observed).
NOISE_SIGMA = 0.08
#: Fraction of queries for which the default hint is already optimal
#: (ETL-style / write-bound queries).
INCOMPRESSIBLE_FRACTION = 0.12


def generate_workload(spec: WorkloadSpec, seed: int = 0) -> SyntheticWorkload:
    """Generate a calibrated synthetic workload for ``spec`` (latent rank
    ``spec.rank``), reproducible from ``seed``."""
    rank = spec.rank
    rng = np.random.default_rng(seed)
    n, k = spec.n_queries, spec.n_hints

    # Queries belong to latent "types" (join-template families in CEB/Stack
    # terms): each query loads mostly one latent dimension, scaled by a
    # log-normal per-query weight that produces the heavy-tailed totals.
    query_scale = rng.lognormal(mean=0.0, sigma=1.0, size=(n, 1))
    cluster = rng.integers(0, rank, size=n)
    membership = np.full((n, rank), 0.0)
    membership[np.arange(n), cluster] = 1.0
    mixing = 0.15
    membership = (1.0 - mixing) * membership + mixing * rng.dirichlet(
        alpha=[0.4] * rank, size=n
    )
    query_factors = membership * query_scale

    # Hints have a per-type cost.  A few hints are distinctly good for each
    # query type (e.g. "disable nested loops" rescues one family of joins),
    # which is the inter-query structure matrix completion exploits.
    hint_factors = rng.lognormal(mean=0.0, sigma=0.45, size=(k, rank))
    for latent_dim in range(rank):
        good_columns = rng.choice(np.arange(1, k), size=3, replace=False)
        hint_factors[good_columns, latent_dim] *= rng.uniform(0.25, 0.5, size=3)
    # The default hint (column 0) is a reasonable all-rounder, but clearly
    # worse than each type's specialised hints, so most rows have headroom.
    hint_factors[0] = np.quantile(hint_factors[1:], 0.55, axis=0) * rng.uniform(
        1.1, 1.5, size=rank
    )

    # Every n x k step below runs in place: the same ufuncs in the same
    # order as the out-of-place expressions, without their temporaries.
    matrix = query_factors @ hint_factors.T
    noise = rng.lognormal(mean=0.0, sigma=NOISE_SIGMA, size=matrix.shape)
    matrix *= noise
    matrix += 1e-3
    del noise

    # Incompressible queries: force the default column to be their minimum.
    n_incompressible = int(round(INCOMPRESSIBLE_FRACTION * n))
    if n_incompressible:
        rows = rng.choice(n, size=n_incompressible, replace=False)
        row_min = matrix[rows].min(axis=1)
        matrix[rows, 0] = row_min * rng.uniform(0.95, 1.0, size=n_incompressible)

    # Scale so the default column matches the paper's Default total.
    scale = spec.default_total / matrix[:, 0].sum()
    matrix *= scale

    # Match the Optimal total with a per-row power transform.
    matrix = _calibrate_headroom(matrix, spec.optimal_total)
    np.clip(matrix, 1e-4, None, out=matrix)

    # The optimizer costs are drawn on first read, from the generator as it
    # stands here and these latencies (``SyntheticWorkload.optimizer_costs``).
    matrix.flags.writeable = False
    return SyntheticWorkload(
        spec=spec,
        true_latencies=matrix,
        query_factors=query_factors * np.sqrt(scale),
        hint_factors=hint_factors * np.sqrt(scale),
        optimizer_costs=rng.bit_generator.state,
        seed=seed,
    )
