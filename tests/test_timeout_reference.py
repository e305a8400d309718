"""Algorithm 1's per-chunk timeouts against the per-cell body: the judge.

``OfflineExplorer`` used to compute ``T_ij = min(min(W~_i), alpha * Ŵ_ij)``
one cell at a time, with a ``row_min`` and a count of the row's observations
read per cell.  It now reads a chunk's rows in one ``WorkloadMatrix.row_stats``
call and does the per-cell arithmetic on Python floats.
:func:`_reference_timeout_for` keeps the per-cell body verbatim; the
property holds the two bit-equal (``float.hex``) over rows with 0, 1 or
>= 2 completed observations, rows whose minimum is ``inf`` (nothing or only
censored cells), and predictions that are <= 0, ``inf``, ``nan``, of the
wrong shape, or absent.
"""

from typing import Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExplorationConfig
from repro.core.explorer import MatrixOracle, OfflineExplorer
from repro.core.policies import RandomPolicy
from repro.core.workload_matrix import WorkloadMatrix


def _reference_timeout_for(
    self, query: int, hint: int, predicted: Optional[np.ndarray]
) -> Optional[float]:
    """``OfflineExplorer._timeout_for`` as it stood, kept verbatim."""
    row_min = float(self.matrix.row_minima()[query])
    candidates = []
    if np.isfinite(row_min):
        candidates.append(row_min)
    prediction_usable = (
        predicted is not None
        and predicted.shape == self.matrix.shape
        and self.matrix.mask[query].sum() >= 2
    )
    if prediction_usable:
        predicted_value = float(predicted[query, hint])
        if np.isfinite(predicted_value) and predicted_value > 0:
            candidates.append(predicted_value * self.config.timeout_alpha)
    if not candidates:
        return None
    return float(min(candidates))


def _hex(timeouts):
    return [None if t is None else float(t).hex() for t in timeouts]


latencies = st.one_of(
    st.just(0.0), st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
)
# Predictions a completion can hand over, and a few it should not.
predictions = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, -1.0, np.inf, -np.inf, np.nan, 5e-324]),
    st.floats(1e-3, 1e3),
)


@st.composite
def cases(draw):
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    matrix = WorkloadMatrix(n, k)
    for row in range(n):
        # 0, 1 or >= 2 completed cells; censored cells leave the minimum alone.
        for hint in draw(st.lists(st.integers(0, k - 1), max_size=k, unique=True)):
            if draw(st.booleans()):
                matrix.observe(row, hint, draw(latencies))
            else:
                matrix.observe_censored(row, hint, draw(st.floats(1e-3, 1e3)))
    shape = draw(st.sampled_from(["same", "none", "short", "flat"]))
    if shape == "none":
        predicted = None
    else:
        values = draw(st.lists(predictions, min_size=n * k, max_size=n * k))
        predicted = np.asarray(values, dtype=float).reshape(n, k)
        if shape == "short":
            predicted = predicted[:-1] if n > 1 else predicted[:, :0]
        elif shape == "flat":
            predicted = predicted.ravel()
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    chunk = [(row, draw(st.integers(0, k - 1))) for row in rows]
    alpha = draw(st.one_of(st.floats(0.1, 8.0), st.integers(1, 4)))
    return matrix, predicted, chunk, alpha


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_chunk_timeouts_equal_the_per_cell_body(case):
    matrix, predicted, chunk, alpha = case
    explorer = OfflineExplorer(
        matrix,
        RandomPolicy(),
        MatrixOracle(np.ones(matrix.shape)),
        ExplorationConfig(timeout_alpha=alpha),
    )
    reference = [_reference_timeout_for(explorer, q, h, predicted) for q, h in chunk]
    assert _hex(explorer._timeouts_for(chunk, predicted)) == _hex(reference)


def test_each_branch_is_reached():
    """The cases the property draws, spelled out once: the row minimum
    alone, the cap alone, their minimum, and neither."""
    matrix = WorkloadMatrix(4, 3)
    matrix.observe_batch([0, 0, 1], [0, 1, 0], [4.0, 6.0, 3.0])  # rows 0 (2 obs), 1 (1 obs)
    matrix.observe_censored(2, 0, 9.0)  # row 2: only censored, minimum inf
    explorer = OfflineExplorer(
        matrix, RandomPolicy(), MatrixOracle(np.ones((4, 3))), ExplorationConfig(timeout_alpha=2.0)
    )
    predicted = np.array([[1.0, 1.0, 1.5], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    chunk = [(0, 2), (1, 2), (2, 1), (3, 1)]
    assert explorer._timeouts_for(chunk, predicted) == [3.0, 3.0, None, None]
    assert explorer._timeouts_for([(0, 2)], None) == [4.0]
    predicted[0, 2] = 2.5
    assert explorer._timeouts_for([(0, 2)], predicted) == [4.0]
