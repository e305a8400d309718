"""Row-patched plan-cache snapshots against from-scratch judges.

A write stamps the rows it touched (``WorkloadMatrix.rows_changed_since``)
and ``PlanCache.snapshot()`` re-decides only those rows.  The hypothesis
property drives random interleavings of *every* matrix mutator with two
caches on one matrix, each read at its own staleness, and after every
step holds the patched decision arrays to three independent judges:

* a from-scratch :meth:`CacheSnapshot.compute` at the same version,
* ``_reference_compute`` -- the whole-matrix rule as it stood before the
  row kernel existed (``matrix.values`` / ``matrix.mask`` /
  ``best_hint_array``), kept verbatim,
* the scalar :meth:`PlanCache.lookup`, which walks one row per call and
  shares no code with the vectorised kernel.

Byte equality throughout; snapshots handed out earlier must never change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan_cache import DEFAULT_HINT, CacheSnapshot, PlanCache
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import MatrixError
from repro.serving import ServingService

ARRAYS = ("hints", "used_default", "expected_latency")


def _reference_compute(matrix):
    """The pre-patching ``CacheSnapshot.compute`` body, kept verbatim at the
    serving rule's constants (default plan ``DEFAULT_HINT``, margin 1.0)."""
    default_hint, regression_margin = DEFAULT_HINT, 1.0
    values = matrix.values
    observed = matrix.mask > 0
    default_latency = np.where(
        observed[:, default_hint], values[:, default_hint], np.inf
    )
    best = matrix.best_hint_array()
    safe_best = np.maximum(best, 0)
    best_latency = values[np.arange(matrix.n_queries), safe_best]
    best_latency = np.where(best >= 0, best_latency, np.inf)
    serve_best = (
        (best >= 0)
        & (best != default_hint)
        & (best_latency <= default_latency * regression_margin)
    )
    hints = np.where(serve_best, safe_best, default_hint).astype(np.int64)
    expected = np.where(serve_best, best_latency, default_latency)
    return hints, ~serve_best, expected


def blobs(snapshot):
    return tuple(getattr(snapshot, name).tobytes() for name in ARRAYS)


def assert_judged(cache, snapshot):
    """``snapshot`` is what every from-scratch judge says it should be."""
    matrix = cache.matrix
    assert snapshot.version == matrix.version
    assert snapshot.n_queries == matrix.n_queries
    fresh = CacheSnapshot.compute(matrix)
    assert blobs(snapshot) == blobs(fresh)
    reference = _reference_compute(matrix)
    for name, want in zip(ARRAYS, reference):
        got = getattr(snapshot, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    scalar = PlanCache(matrix)
    for query, decision in enumerate(scalar.lookup_all()):
        assert decision.hint == snapshot.hints[query]
        assert decision.used_default == snapshot.used_default[query]
        # inf == inf holds; both sides are the very same stored double.
        assert decision.expected_latency == snapshot.expected_latency[query]


# One op = (kind, three small ints the kind interprets, a latency).
OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "observe", "observe_batch", "censor", "invalidate_rows",
                "invalidate_all", "add_query", "import_rows", "remove",
                "copy", "from_dict", "read_a", "read_b", "noop_censor",
            ]
        ),
        st.integers(0, 2**16),
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


def apply(matrix, kind, arg, latency):
    """Run one mutator; returns the matrix the caches should now watch."""
    rng = np.random.default_rng(arg)
    n, k = matrix.shape
    if kind == "observe":
        matrix.observe(int(rng.integers(n)), int(rng.integers(k)), latency)
    elif kind == "observe_batch":
        size = int(rng.integers(0, 6))
        matrix.observe_batch(
            rng.integers(0, n, size), rng.integers(0, k, size), rng.uniform(0, 40, size)
        )
    elif kind == "censor":
        matrix.observe_censored(int(rng.integers(n)), int(rng.integers(k)), latency + 0.5)
    elif kind == "noop_censor":
        # Censoring an observed cell records nothing and must not stamp.
        query, hint = int(rng.integers(n)), int(rng.integers(k))
        matrix.observe(query, hint, latency)
        version = matrix.version
        matrix.observe_censored(query, hint, latency + 1.0)
        assert matrix.version == version
    elif kind == "invalidate_rows":
        matrix.invalidate(rng.integers(0, n, int(rng.integers(0, 4))).tolist())
    elif kind == "invalidate_all":
        matrix.invalidate()
    elif kind == "add_query":
        matrix.add_query()
    elif kind == "import_rows":
        donor = WorkloadMatrix(2, k)
        donor.observe(0, int(rng.integers(k)), latency)
        donor.observe_censored(1, int(rng.integers(k)), latency + 0.5)
        payload = donor.export_rows([0, 1])
        payload["query_names"] = [f"i{arg}a", f"i{arg}b"]
        matrix.import_rows(payload)
    elif kind == "remove" and n > 2:
        matrix.remove_queries(np.unique(rng.integers(0, n, int(rng.integers(1, 3)))))
    elif kind == "copy":
        return matrix.copy()
    elif kind == "from_dict":
        return WorkloadMatrix.from_dict(matrix.to_dict())
    return matrix


class TestPatchedEqualsFromScratch:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=OPS,
        n=st.integers(2, 7),
        k=st.integers(1, 5),
        seed_default=st.booleans(),
    )
    def test_every_mutator_two_consumers(self, ops, n, k, seed_default):
        matrix = WorkloadMatrix(n, k)
        if seed_default:  # otherwise the default column starts unobserved
            matrix.observe_batch(
                np.arange(n), np.full(n, DEFAULT_HINT), np.linspace(1.0, 9.0, n)
            )
        caches = {name: PlanCache(matrix) for name in ("a", "b")}
        held = []  # (snapshot, its bytes when it was handed out)
        for kind, arg, latency in ops:
            if kind in ("read_a", "read_b"):
                cache = caches[kind[-1]]
                stale = cache.cached_snapshot
                snapshot = cache.snapshot()
                assert_judged(cache, snapshot)
                if stale is not None and stale.version != matrix.version:
                    assert snapshot is not stale
                held.append((snapshot, blobs(snapshot)))
            else:
                after = apply(matrix, kind, arg, latency)
                if after is not matrix:  # copy / from_dict: a new object to watch
                    matrix = after
                    caches = {name: PlanCache(matrix) for name in caches}
            for snapshot, then in held:
                assert blobs(snapshot) == then
        for cache in caches.values():
            assert_judged(cache, cache.snapshot())

    def test_patch_and_rebuild_are_told_apart(self):
        matrix = WorkloadMatrix(6, 3)
        cache = PlanCache(matrix)
        first = cache.snapshot()
        assert first.patched_rows is None  # first build: full compute
        assert cache.snapshot() is first  # nothing moved
        matrix.observe_batch([1, 1, 4], [0, 2, 1], [3.0, 1.0, 2.0])
        patched = cache.snapshot()
        assert patched.patched_rows == 2 and patched is not first
        assert first.version == 0 and first.used_default.all()  # left alone
        matrix.invalidate([])  # a version bump that touches no row
        assert cache.snapshot().patched_rows == 0
        matrix.add_query()  # the row set changed: indices no longer line up
        grown = cache.snapshot()
        assert grown.patched_rows is None and grown.n_queries == 7
        assert cache.snapshot(force=True).patched_rows is None


class TestRowStamps:
    def test_rows_changed_since_names_exactly_the_touched_rows(self):
        matrix = WorkloadMatrix(8, 4)
        assert matrix.rows_changed_since(matrix.version).size == 0
        v0 = matrix.version
        matrix.observe(2, 1, 1.0)
        v1 = matrix.version
        matrix.observe_batch([5, 5, 7], [0, 1, 2], [1.0, 2.0, 3.0])
        matrix.observe_censored(0, 3, 4.0)
        assert matrix.rows_changed_since(v0).tolist() == [0, 2, 5, 7]
        assert matrix.rows_changed_since(v1).tolist() == [0, 5, 7]
        v2 = matrix.version
        matrix.invalidate([7, 1])
        assert matrix.rows_changed_since(v2).tolist() == [1, 7]
        matrix.invalidate()
        assert matrix.rows_changed_since(v2).tolist() == list(range(8))

    @pytest.mark.parametrize(
        "restructure",
        [
            lambda m: m.add_query(),
            lambda m: m.import_rows(WorkloadMatrix(1, 4).export_rows([0])),
            lambda m: m.remove_queries([3]),
        ],
    )
    def test_a_changed_row_set_answers_none_to_older_readers(self, restructure):
        matrix = WorkloadMatrix(8, 4)
        matrix.observe(2, 1, 1.0)
        before = matrix.version
        restructure(matrix)
        assert matrix.rows_changed_since(before) is None
        assert matrix.rows_changed_since(matrix.version).size == 0
        matrix.observe(0, 0, 1.0)
        assert matrix.rows_changed_since(matrix.version - 1).tolist() == [0]
        assert matrix.rows_changed_since(before) is None  # still, for good

    def test_from_dict_copy_and_load_start_consistent(self):
        matrix = WorkloadMatrix(5, 3)
        matrix.observe(1, 1, 2.0)
        for clone in (matrix.copy(), WorkloadMatrix.from_dict(matrix.to_dict())):
            assert clone.rows_changed_since(0) is None
            assert clone.rows_changed_since(clone.version).size == 0
            clone.add_query()
            clone.observe(5, 0, 1.0)
            assert clone.rows_changed_since(clone.version - 1).tolist() == [5]

    def test_vectorised_invalidate_checks_bounds_before_it_logs(self):
        class Journal:
            records = []

            def log_invalidate(self, rows):
                self.records.append(rows)

        matrix = WorkloadMatrix(4, 2)
        matrix.observe_batch([0, 1, 2, 3], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0])
        matrix.journal = Journal()
        for bad in ([0, 4], [-1], [2, 9, 1]):
            version = matrix.version
            with pytest.raises(MatrixError):
                matrix.invalidate(bad)
            assert matrix.version == version and matrix.observed_fraction() == 0.5
        assert Journal.records == []
        matrix.invalidate(np.array([3, 1, 1]))
        matrix.invalidate(None)
        assert Journal.records == [[3, 1, 1], None]


class TestServingCountsPatches:
    def test_rebuilds_count_full_builds_and_patches_count_rows(self):
        matrix = WorkloadMatrix(10, 3)
        matrix.observe_batch(np.arange(10), np.zeros(10, dtype=int), np.full(10, 5.0))
        service = ServingService(matrix)
        metrics = service.recorder.metrics
        service.serve_all()
        assert (metrics.cache_rebuilds.value, metrics.cache_patched_rows.value) == (1, 0)
        service.observe_batch([2, 2, 6], [1, 2, 1], [1.0, 2.0, 3.0])
        service.observe_batch([6, 8], [2, 2], [1.0, 9.0])
        service.serve_all()
        service.serve_all()  # nothing moved in between: no patch, no rebuild
        assert (metrics.cache_rebuilds.value, metrics.cache_patched_rows.value) == (1, 3)
        matrix.add_query()
        service.serve_all()
        assert (metrics.cache_rebuilds.value, metrics.cache_patched_rows.value) == (2, 3)
