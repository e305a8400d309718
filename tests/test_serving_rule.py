"""The serving rule is one default-first row argmin.

``core.plan_cache._serving_rule`` answers ``(hints, used_default,
expected_latency)`` as the row ``argmin`` over completed latencies, the hint
found, whether it is the default, and the latency gathered there.  The
property below holds it byte for byte, dtype included, to two judges:

* the three-condition rule it replaced (a best hint other than the default,
  finite, and no slower than the default), restated verbatim;
* the scalar :meth:`PlanCache.lookup`, which walks one row per call.

Rows are drawn from the families where the two formulations could part:
a default tying a non-default, an unobserved default, censored-only rows,
rows with no completed cell, and ``-0.0`` latencies beside ``0.0``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan_cache import DEFAULT_HINT, PlanCache, _serving_rule
from repro.core.workload_matrix import WorkloadMatrix

#: Few distinct values, so that ties (``0.0`` with ``-0.0`` among them) are common.
LATENCIES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])
BOUNDS = st.sampled_from([0.5, 1.0, 3.0])


def test_the_default_plan_is_column_zero():
    """The one-argmin rule needs it: ``argmin`` keeps the first of tied
    minima, so only a default in column 0 wins every tie it is part of."""
    assert DEFAULT_HINT == 0


def _three_condition_rule(matrix, rows):
    """The rule before it was one argmin, kept verbatim."""
    latency = matrix.observed_latencies(rows)
    best = latency.argmin(axis=1)
    best_latency = latency[np.arange(best.shape[0]), best]
    default_latency = latency[:, DEFAULT_HINT]
    # A row with no completed observation has best_latency == inf.
    serve_best = (
        (best != DEFAULT_HINT)
        & (best_latency < np.inf)
        & (best_latency <= default_latency)
    )
    hints = np.where(serve_best, best, DEFAULT_HINT).astype(np.int64)
    expected = np.where(serve_best, best_latency, default_latency)
    return hints, ~serve_best, expected


def _scalar_rule(matrix, rows):
    decisions = [PlanCache(matrix).lookup(int(q)) for q in rows]
    return (
        np.array([d.hint for d in decisions], dtype=np.int64),
        np.array([d.used_default for d in decisions], dtype=bool),
        np.array([d.expected_latency for d in decisions], dtype=float),
    )


@st.composite
def _row(draw, k):
    """One row as ``(completed {hint: latency}, censored {hint: bound})``."""
    family = draw(
        st.sampled_from(["tie", "unobserved_default", "censored_only", "empty", "any"])
    )
    if family == "empty":
        return {}, {}
    if family == "censored_only":
        hints = draw(st.sets(st.integers(0, k - 1), min_size=1))
        return {}, {h: draw(BOUNDS) for h in hints}
    completed = draw(st.dictionaries(st.integers(0, k - 1), LATENCIES))
    if family == "tie" and k > 1:
        value = draw(LATENCIES)
        completed[DEFAULT_HINT] = value
        completed[draw(st.integers(1, k - 1))] = draw(LATENCIES.filter(value.__eq__))
    elif family == "unobserved_default":
        completed.pop(DEFAULT_HINT, None)
    censored = draw(st.dictionaries(st.integers(0, k - 1), BOUNDS))
    return completed, {h: b for h, b in censored.items() if h not in completed}


@st.composite
def _matrices(draw):
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    matrix = WorkloadMatrix(n, k)
    for q in range(n):
        completed, censored = draw(_row(k))
        if completed:
            matrix.observe_batch([q] * len(completed), list(completed), list(completed.values()))
        if censored:
            matrix.observe_censored_batch(
                [q] * len(censored), list(censored), list(censored.values())
            )
    rows = draw(st.lists(st.integers(0, n - 1), max_size=2 * n).map(np.array))
    return matrix, rows.astype(np.int64) if rows.size else np.arange(n)


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_one_argmin_equals_both_judges_byte_for_byte(drawn):
    matrix, rows = drawn
    got = _serving_rule(matrix, rows)
    for judge in (_three_condition_rule, _scalar_rule):
        for ours, theirs in zip(got, judge(matrix, rows)):
            assert ours.dtype == theirs.dtype
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes(), judge.__name__
