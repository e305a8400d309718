"""Censored Alternating Least Squares (paper Algorithm 2).

Completes the workload matrix ``W ≈ Q Hᵀ`` under a rank constraint, a ridge
penalty, non-negativity projection of the factors, and the *censored*
technique: predictions for timed-out entries are clamped up to their
timeout lower bound between factor updates, so the solver is penalised for
under-estimating a censored latency but never for (potentially correct)
over-estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from ..config import ALSConfig
from ..errors import CompletionError

#: The ridge penalty λ of Algorithm 2: the paper's value (Section 5,
#: "Techniques and tests").  It also keeps every ``r x r`` Gram matrix the
#: solver inverts well conditioned.
REGULARIZATION = 0.2


@dataclass
class CensoredALSResult:
    """Output of :func:`censored_als`.

    Attributes
    ----------
    completed:
        The completed matrix: observed values where known, ``Q Hᵀ``
        predictions elsewhere (clamped to censored lower bounds).
    query_factors / hint_factors:
        The ``n x r`` and ``k x r`` factor matrices (``Q`` and ``H``).
    objective_trace:
        Masked squared-error objective after each iteration; useful for
        convergence diagnostics and tests.

    Passed whole as the next solve's ``warm_start``, the result lends that
    solve its ``completed`` buffer: the next estimate is written into it.
    """

    completed: np.ndarray
    query_factors: np.ndarray
    hint_factors: np.ndarray
    objective_trace: np.ndarray
    _product: Optional["_KeptProduct"] = field(default=None, init=False, repr=False, compare=False)

    @property
    def factors(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(Q, H)`` pair, ready to pass as ``warm_start`` to the next solve."""
        return (self.query_factors, self.hint_factors)

    def _reclaim(self) -> Optional[np.ndarray]:
        """``completed`` turned back into ``Q Hᵀ`` of the factors, for a
        warm solve to start from instead of recomputing that product; None
        once taken, or when a factor or the buffer was replaced since the
        solve (the product kept would not be theirs)."""
        kept, self._product = self._product, None
        if kept is None or not (
            kept.query_factors is self.query_factors
            and kept.hint_factors is self.hint_factors
            and kept.completed is self.completed
        ):
            return None
        flat = self.completed.reshape(-1)
        flat[kept.obs_idx] = kept.obs_product
        flat[kept.cen_idx] = kept.cen_product
        return self.completed


class _KeptProduct(NamedTuple):
    """What a solve's final fill overwrote of ``Q Hᵀ``: the product at the
    observed and at the censored cells, with the arrays it belongs to."""

    query_factors: np.ndarray
    hint_factors: np.ndarray
    completed: np.ndarray
    obs_idx: np.ndarray
    obs_product: np.ndarray
    cen_idx: np.ndarray
    cen_product: np.ndarray


class SolverCells(NamedTuple):
    """The cells the solver touches: flat (row-major) indices and values of
    the observed cells, the same for the censored cells and their bounds.
    Both index arrays ascend.  What :meth:`WorkloadMatrix.solver_cells` hands
    over and what the dense triple reduces to."""

    shape: Tuple[int, int]
    obs_idx: np.ndarray
    obs_vals: np.ndarray
    cen_idx: np.ndarray
    cen_vals: np.ndarray


def _dense_cells(
    observed: np.ndarray, mask: np.ndarray, timeouts: Optional[np.ndarray]
) -> SolverCells:
    """Reduce the dense input triple to its :class:`SolverCells`."""
    observed = np.asarray(observed, dtype=float)
    mask = np.asarray(mask)
    if observed.ndim != 2:
        raise CompletionError(f"observed matrix must be 2-D, got shape {observed.shape}")
    if mask.shape != observed.shape:
        raise CompletionError(
            f"mask shape {mask.shape} does not match observed shape {observed.shape}"
        )
    obs_idx = np.flatnonzero(mask.reshape(-1) > 0)
    obs_vals = observed.reshape(-1)[obs_idx]
    if timeouts is None:
        return SolverCells(observed.shape, obs_idx, obs_vals, obs_idx[:0], obs_vals[:0])
    timeouts = np.asarray(timeouts, dtype=float)
    if timeouts.shape != observed.shape:
        raise CompletionError(
            f"timeout shape {timeouts.shape} does not match observed shape {observed.shape}"
        )
    # ``!= 0`` also catches NaN and negative entries, so one scan both finds
    # the censored cells and keeps hostile ones for the check to reject.
    cen_idx = np.flatnonzero(timeouts.reshape(-1) != 0)
    return SolverCells(observed.shape, obs_idx, obs_vals, cen_idx, timeouts.reshape(-1)[cen_idx])


def _checked_cells(cells: SolverCells) -> Tuple[np.ndarray, ...]:
    """The one input check of every solve, on the gathered values: returns
    ``(obs_idx, obs_vals, cen_idx, cen_vals)`` with no cell in both sets."""
    _, obs_idx, obs_vals, cen_idx, cen_vals = cells
    if obs_idx.size == 0:
        raise CompletionError("cannot run ALS with an empty observation mask")
    if not np.all(np.isfinite(obs_vals)):
        raise CompletionError("observed entries must be finite where mask == 1")
    if not np.all(np.isfinite(cen_vals) & (cen_vals > 0)):
        raise CompletionError("timeouts must be finite and >= 0")
    # A completed observation beats a lower bound on the same cell.
    at = np.minimum(np.searchsorted(obs_idx, cen_idx), obs_idx.size - 1)
    keep = obs_idx[at] != cen_idx
    return obs_idx, obs_vals, cen_idx[keep], cen_vals[keep]


def _baseline_factors(
    obs_idx: np.ndarray, obs_vals: np.ndarray, n: int, k: int, rank: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Cold-start factors, computed from the observed cells only.

    The first factor pair encodes the rank-1 multiplicative baseline (per-row
    scale x per-column ratio-to-row-mean), which is what collaborative
    filtering systems use as their bias term.  The remaining factors start
    near zero and learn residual structure.  This makes the fill-in iteration
    useful even when only a few percent of the matrix is observed (the
    cold-start regime of offline exploration).
    """
    rng = np.random.default_rng(seed)
    rows, cols = np.divmod(obs_idx, k)
    row_counts = np.bincount(rows, minlength=n)
    # Row sums go through a dense array: numpy sums a row pairwise, and a
    # sequential ``bincount`` would move the row means in the last bit.
    filled = np.zeros((n, k))
    filled.reshape(-1)[obs_idx] = obs_vals
    row_means = np.where(
        row_counts > 0,
        filled.sum(axis=1) / np.maximum(row_counts, 1),
        float(obs_vals.mean()),
    )
    ratios = obs_vals / np.maximum(row_means, 1e-9)[rows]
    column_counts = np.bincount(cols, minlength=k)
    column_ratios = np.where(
        column_counts > 0,
        np.bincount(cols, weights=ratios, minlength=k) / np.maximum(column_counts, 1),
        1.0,
    )
    query_factors = rng.random((n, rank)) * 1e-2
    hint_factors = rng.random((k, rank)) * 1e-2
    query_factors[:, 0] = np.maximum(row_means, 1e-9)
    hint_factors[:, 0] = np.maximum(column_ratios, 1e-9)
    return query_factors, hint_factors


def censored_als(
    observed,
    mask: Optional[np.ndarray] = None,
    timeouts: Optional[np.ndarray] = None,
    config: Optional[ALSConfig] = None,
    warm_start: Union[Tuple[np.ndarray, np.ndarray], CensoredALSResult, None] = None,
    iterations: Optional[int] = None,
) -> CensoredALSResult:
    """Run Algorithm 2 and return the completed matrix and factors.

    Parameters
    ----------
    observed:
        ``n x k`` matrix; entries where ``mask == 1`` must be finite
        latencies, other entries are ignored (may be ``inf``).  Or the
        :class:`SolverCells` of a workload matrix in place of the whole
        triple (``mask`` and ``timeouts`` are then not read): the same
        check runs on them, and no ``n x k`` input is copied or scanned.
    mask:
        ``n x k`` 0/1 matrix of completed observations (any positive entry
        means observed).
    timeouts:
        ``n x k`` matrix of finite censored lower bounds (0 where not
        censored; ignored on observed cells).  Validated, then unused, when
        ``config.censored`` is False.
    config:
        Hyper-parameters; defaults to :class:`~repro.config.ALSConfig`'s:
        the paper's ``r=5`` and ``λ=0.2``, and 15 iterations (the paper's
        ``t=50`` is ``ALSConfig(iterations=50)``).
    warm_start:
        Optional ``(Q, H)`` factor pair from a previous solve (see
        :attr:`CensoredALSResult.factors`).  Rows beyond the warm factors'
        extent (queries that arrived since) keep the cold-start baseline
        initialisation, so the workload may have grown in between.  Warm
        starts are what make incremental serving-time refreshes cheap: a few
        fill-in iterations recover the optimum instead of a full solve.
        Or the previous :class:`CensoredALSResult` itself: the same solve,
        bit for bit, which -- when its factors cover the matrix -- starts
        from that result's ``completed`` restored to ``Q Hᵀ`` instead of
        recomputing the product, and writes its estimate into that buffer.
    iterations:
        Optional override of ``config.iterations`` (used by incremental
        refreshes without rebuilding the config).

    Raises :class:`~repro.errors.CompletionError` -- never a bare numpy
    error -- when an ``r x r`` inverse fails or the factors come out
    non-finite; holders of warm factors answer it with one cold solve.
    """
    config = config or ALSConfig()
    cells = observed
    if not isinstance(cells, SolverCells):
        cells = _dense_cells(observed, mask, timeouts)
    obs_idx, obs_vals, cen_idx, cen_vals = _checked_cells(cells)
    if not config.censored:
        cen_idx = cen_idx[:0]
    n, k = cells.shape
    rank = min(config.rank, n, k)

    previous = None
    if isinstance(warm_start, CensoredALSResult):
        previous, warm_start = warm_start, warm_start.factors
    warm_q = warm_h = None
    if warm_start is not None:
        warm_q, warm_h = warm_start
        warm_q = np.ascontiguousarray(warm_q, dtype=float)
        warm_h = np.ascontiguousarray(warm_h, dtype=float)
        if warm_q.ndim != 2 or warm_h.ndim != 2:
            raise CompletionError("warm_start factors must be 2-D arrays")
        if warm_q.shape[1] != rank or warm_h.shape[1] != rank:
            raise CompletionError(
                f"warm_start rank {warm_q.shape[1]}x{warm_h.shape[1]} does not "
                f"match solver rank {rank}"
            )
        if warm_q.shape[0] > n or warm_h.shape[0] > k:
            raise CompletionError(
                "warm_start factors have more rows than the matrix; shrinkage "
                "is not supported"
            )
    covered = warm_q is not None and warm_q.shape[0] == n and warm_h.shape[0] == k
    if covered:
        # The warm factors cover the matrix: nothing of the baseline survives.
        query_factors, hint_factors = warm_q, warm_h
    else:
        query_factors, hint_factors = _baseline_factors(obs_idx, obs_vals, n, k, rank, config.seed)
        if warm_q is not None:
            query_factors[: warm_q.shape[0]] = warm_q
            hint_factors[: warm_h.shape[0]] = warm_h

    n_iterations = config.iterations if iterations is None else int(iterations)
    if n_iterations < 1:
        raise CompletionError(f"iterations must be >= 1, got {n_iterations}")

    reg = REGULARIZATION * np.eye(rank)
    objective_trace = []

    # Hot loop: every ``Q Hᵀ`` product lands in the one ``completed`` buffer
    # and the observed and censored cells, fixed for the whole solve, are
    # patched through its flat view -- one BLAS matmul plus two small
    # scatters per half-iteration, no other n x k array.  ``Hᵀ`` (r x k) is
    # copied contiguous for the product: the strided view is ~35% slower.
    # A warm start from a whole result that covers the matrix takes over its
    # buffer, which holds the first product already once the cells its
    # final fill overwrote get their kept product back.
    completed = previous._reclaim() if covered and previous is not None else None
    if completed is None:
        completed = np.empty((n, k))
        np.matmul(query_factors, np.ascontiguousarray(hint_factors.T), out=completed)
    flat = completed.reshape(-1)

    def _fill() -> None:
        """``completed`` (holding ``Q Hᵀ``) <- observed values where known,
        censored-clamped estimate elsewhere (Algorithm 2 lines 4-5, 9-10)."""
        flat[obs_idx] = obs_vals
        if cen_idx.size:
            flat[cen_idx] = np.maximum(flat[cen_idx], cen_vals)

    try:
        for _ in range(n_iterations):
            _fill()
            # Algorithm 2's literal ``Q <- W̃ H (HᵀH + λI)⁻¹``: invert the r x r
            # Gram once and apply it with one matmul.  ``np.linalg.solve`` with
            # n right-hand sides costs ~20x more at n=3133, r=5 (LAPACK copies
            # them in and out); the ridge term keeps the Gram well conditioned.
            gram_h = hint_factors.T @ hint_factors + reg
            query_factors = completed @ hint_factors @ np.linalg.inv(gram_h)
            if config.nonnegative:
                np.maximum(query_factors, 0.0, out=query_factors)

            np.matmul(query_factors, np.ascontiguousarray(hint_factors.T), out=completed)
            _fill()
            gram_q = query_factors.T @ query_factors + reg
            hint_factors = completed.T @ query_factors @ np.linalg.inv(gram_q)
            if config.nonnegative:
                np.maximum(hint_factors, 0.0, out=hint_factors)

            # The product for the objective is read at the observed cells before
            # the next (or the final) fill overwrites them.
            np.matmul(query_factors, np.ascontiguousarray(hint_factors.T), out=completed)
            obs_product = flat[obs_idx]
            residual = obs_vals - obs_product
            objective_trace.append(float((residual ** 2).sum()))
    except np.linalg.LinAlgError as exc:
        raise CompletionError(
            f"censored ALS could not invert an {rank}x{rank} Gram matrix ({exc})"
        ) from exc
    # One check on the way out, nothing per iteration: factors that diverged
    # (warm starts under a data shift can) must not reach a caller as numbers.
    if not (np.isfinite(query_factors).all() and np.isfinite(hint_factors).all()):
        raise CompletionError("censored ALS produced non-finite factors")

    # The last product at the censored cells too, before the final fill
    # overwrites them: with the observed ones, all a next warm solve needs
    # to restore ``Q Hᵀ`` in this buffer.
    product = _KeptProduct(
        query_factors, hint_factors, completed, obs_idx, obs_product, cen_idx, flat[cen_idx]
    )
    _fill()
    result = CensoredALSResult(
        completed=completed,
        query_factors=query_factors,
        hint_factors=hint_factors,
        objective_trace=np.asarray(objective_trace),
    )
    result._product = product
    return result
