"""A drift response and a recovery pass share one body: the judge.

``AdaptationController`` used to carry two copies of "anchor the unanchored
defaults within budget, explore the rest on the scoped rows, patch the
snapshot, enqueue and journal the backlog": one in ``respond`` and one in
``_recover``, each with its own row arithmetic, and a backlog prune that
built the ``n x k`` unknown mask.  :class:`TwoBodyController` keeps those
bodies verbatim as the reference.  The property drives it and the real
controller side by side -- over drift, serves whose feedback feeds the
detector, row growth, censored cells, unanchored rows, crash-recovery
backlogs -- and requires the same tick results, the same live executions
in the same order, and identical matrices, backlogs, counters and response
plans after every step.

Both run at the adaptation constants (window, thresholds, budget, cooldown,
persistence) the traffic runs at, so the draws take the shape of that
traffic: shards of tens to a couple of hundred rows, serves of at least
``MIN_SAMPLES`` arrivals, and drift drawn by the scenario engine's own
``shift_latencies`` at the changed fractions and growth factors of
``adapt_drift``'s drift events and aging phases.
"""

from typing import Optional

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    COOLDOWN_TICKS,
    MIN_SAMPLES,
    PERSISTENT_HITS,
    RESPONSE_BUDGET_CELLS,
    DriftDetector,
    RowOracle,
)
from repro.adaptive.controller import AdaptationController, _ResponsePlan
from repro.adaptive.detector import DriftStatus
from repro.core.workload_matrix import WorkloadMatrix
from repro.serving import ServingService
from repro.workloads.shift import shift_latencies

KEY = "shard-0"


class TwoBodyController(AdaptationController):
    """The controller as it stood with a response body and a recovery body."""

    def _journal_backlog(self) -> None:
        journal = getattr(self.service, "journal", None)
        if journal is not None:
            journal.log_adapt_backlog(self._backlog)

    def _prune_backlog(self) -> None:
        if not self._backlog.size:
            return
        matrix = self.service.matrix
        target = matrix.n_hints
        in_range = self._backlog[self._backlog < matrix.n_queries]
        if not in_range.size:
            self._backlog = in_range
            return
        unknown = matrix.unknown_mask()
        known_counts = matrix.n_hints - unknown[in_range].sum(axis=1)
        self._backlog = in_range[known_counts < target]

    def tick(self) -> bool:
        self.stats.ticks += 1
        if self._cooldown > 0:
            self._cooldown -= 1
            return False
        status = self.detector.status(self.key)
        self.stats.last_drift_score = status.drift_score
        self.stats.last_unseen_rate = status.unseen_rate
        if status.triggered:
            self.respond(status)
            self._cooldown = COOLDOWN_TICKS
            return True
        if self._recover():
            self._cooldown = COOLDOWN_TICKS
            return True
        hits = PERSISTENT_HITS
        persistent_drift = self.detector.drifted_rows(self.key, min_hits=hits)
        persistent_unseen = self.detector.unseen_rows(self.key, min_hits=hits)
        if persistent_drift.size or persistent_unseen.size:
            self.respond(
                status, drifted=persistent_drift, unseen=persistent_unseen,
                sweep=True,
            )
            self._cooldown = COOLDOWN_TICKS
            return True
        return False

    def _recover(self) -> bool:
        self._prune_backlog()
        if not self._backlog.size:
            return False
        budget = RESPONSE_BUDGET_CELLS
        matrix = self.service.matrix
        default_hint = self.service.cache.default_hint
        anchored_mask = np.asarray(
            [matrix.is_observed(int(row), default_hint) for row in self._backlog],
            dtype=bool,
        )
        newly_anchored = self._backlog[~anchored_mask][:budget]
        if newly_anchored.size:
            used = self.reexplorer.remeasure_rows(newly_anchored, default_hint)
            budget -= used
            self.stats.remeasured_cells += used
        explorable = np.sort(
            np.concatenate([self._backlog[anchored_mask], newly_anchored])
        )
        explored = 0
        if budget > 0 and explorable.size:
            explored = self.reexplorer.explore(budget, rows=explorable)
        self.stats.explored_cells += explored
        self.stats.recovery_passes += 1
        self.service.cache.current()
        self._prune_backlog()
        self._journal_backlog()
        self.stats.backlog_rows = int(self._backlog.size)
        return (explored + int(newly_anchored.size)) > 0

    def respond(
        self,
        status: DriftStatus,
        drifted: Optional[np.ndarray] = None,
        unseen: Optional[np.ndarray] = None,
        sweep: bool = False,
    ) -> _ResponsePlan:
        plan = _ResponsePlan(status, np.zeros(0, dtype=np.int64), 0, 0)
        budget = RESPONSE_BUDGET_CELLS
        matrix = self.service.matrix
        n_rows = matrix.n_queries

        if drifted is None:
            if status.drift_triggered:
                drifted = self.detector.drifted_rows(self.key)
            else:
                drifted = np.zeros(0, dtype=np.int64)
        if unseen is None:
            unseen = self.detector.unseen_rows(self.key)
        drifted = np.asarray(drifted, dtype=np.int64)
        unseen = np.asarray(unseen, dtype=np.int64)
        drifted = drifted[drifted < n_rows]
        unseen = unseen[unseen < n_rows]

        if drifted.size:
            self.service.matrix.invalidate(drifted)
            plan.invalidated = drifted
            self.stats.invalidated_rows += int(drifted.size)

        anchor = np.union1d(drifted, unseen)
        default_hint = self.service.cache.default_hint
        need_anchor = np.asarray(
            [
                int(row)
                for row in anchor
                if not matrix.is_observed(int(row), default_hint)
            ],
            dtype=np.int64,
        )
        if need_anchor.size:
            take = need_anchor[: budget]
            plan.remeasured = self.reexplorer.remeasure_rows(take, default_hint)
            budget -= plan.remeasured
            self.stats.remeasured_cells += plan.remeasured

        if budget > 0:
            plan.explored = self.reexplorer.explore(
                budget, rows=anchor if anchor.size else None
            )
            self.stats.explored_cells += plan.explored

        self.service.cache.current()

        self._push_backlog(anchor)
        self._prune_backlog()
        self._journal_backlog()
        self.stats.backlog_rows = int(self._backlog.size)

        self.detector.reset(self.key)
        self.stats.responses += 1
        if sweep:
            self.stats.sweep_responses += 1
        if status.drift_triggered:
            self.stats.drift_responses += 1
        if status.unseen_triggered:
            self.stats.unseen_responses += 1
        self.last_response = plan
        return plan


class _Side:
    """One stack: a matrix, its service, a detector and a controller whose
    oracle logs every live execution."""

    def __init__(self, cls, truth, n, bootstrap):
        matrix = WorkloadMatrix(n, truth.shape[1])
        for kind, q, h, value in bootstrap:
            if kind == "observe":
                matrix.observe(q, h, value)
            else:
                matrix.observe_censored(q, h, value)
        self.service = ServingService(matrix)
        self.detector = DriftDetector()
        self.executed = []

        def lookup(row, hint):
            self.executed.append((row, hint))
            return truth[row, hint]

        self.controller = cls(self.service, RowOracle(lookup), self.detector, KEY)

    def feed(self, rows, truth):
        decisions = self.service.serve_batch(rows)
        measured = truth[decisions.queries, decisions.hints]
        self.detector.record(
            decisions.queries, decisions.expected_latency, measured, key=KEY
        )
        self.detector.note_row_count(self.service.matrix.n_queries, key=KEY)


def _assert_same(new, old):
    a, b = new.service.matrix, old.service.matrix
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.censored_mask, b.censored_mask)
    assert new.executed == old.executed
    assert np.array_equal(new.controller._backlog, old.controller._backlog)
    assert new.controller.stats == old.controller.stats
    plans = new.controller.last_response, old.controller.last_response
    assert (plans[0] is None) == (plans[1] is None)
    if plans[0] is not None:
        assert plans[0].status == plans[1].status
        assert np.array_equal(plans[0].invalidated, plans[1].invalidated)
        assert (plans[0].remeasured, plans[0].explored) == (
            plans[1].remeasured, plans[1].explored
        )


#: ``adapt_drift``'s drift: a ``data_drift`` event moves 30% of the rows and
#: grows every latency by 15%; an aging tick moves 4% and grows by 0.8%.
drifts = st.sampled_from([(0.3, 1.15), (0.04, 1.008)])

operations = st.lists(
    st.one_of(
        st.tuples(st.just("serve"), st.integers(MIN_SAMPLES, 384), st.integers(0, 2**16)),
        st.tuples(st.just("drift"), drifts),
        st.tuples(st.just("add"), st.integers(1, 32)),
        st.tuples(st.just("seed_backlog"), st.lists(st.integers(0, 400), max_size=8)),
        st.just(("tick",)),
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(40, 400),
    k=st.integers(4, 12),
    anchored=st.floats(0.2, 1.0),
    ops=operations,
    seed=st.integers(0, 2**16),
)
def test_one_body_acts_as_the_two_did(n, k, anchored, ops, seed):
    rng = np.random.default_rng(seed)
    truth = rng.uniform(1.0, 50.0, (n + 32 * len(ops), k))
    # Some rows without a default observation, some best hints, a censored cell.
    bootstrap = []
    for q in range(n):
        if rng.random() < anchored:
            bootstrap.append(("observe", q, 0, truth[q, 0]))
        if rng.random() < 0.85:
            h = int(truth[q].argmin())
            bootstrap.append(("observe", q, h, truth[q, h]))
        if rng.random() < 0.3:
            h = int(rng.integers(1, k))
            bootstrap.append(("censor", q, h, 0.5 * truth[q, h]))
    new = _Side(AdaptationController, truth, n, bootstrap)
    old = _Side(TwoBodyController, truth, n, bootstrap)

    for op in ops:
        rows = new.service.matrix.n_queries
        if op[0] == "serve":  # a scenario tick: serve, record, then tick
            queries = np.random.default_rng(op[2]).integers(0, rows, op[1])
            new.feed(queries, truth)
            old.feed(queries, truth)
            _assert_same(new, old)
            assert new.controller.tick() == old.controller.tick()
        elif op[0] == "drift":
            truth[:] = shift_latencies(truth, *op[1], rng)[0]
        elif op[0] == "add":
            for _ in range(op[1]):
                new.service.matrix.add_query()
                old.service.matrix.add_query()
        elif op[0] == "seed_backlog":
            new.controller.seed_backlog(op[1])
            old.controller.seed_backlog(op[1])
        else:
            assert new.controller.tick() == old.controller.tick()
        _assert_same(new, old)
    for _ in range(3 * (COOLDOWN_TICKS + 1)):  # let the recovery passes run
        assert new.controller.tick() == old.controller.tick()
        _assert_same(new, old)
    stats = new.controller.stats
    event("responded" if stats.responses else "no response")
    event("recovered" if stats.recovery_passes else "no recovery pass")
