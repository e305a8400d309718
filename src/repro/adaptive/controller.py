"""One shard's adaptation pipeline: drift status in, budgeted repairs out.

:class:`AdaptationController` closes the loop the paper leaves open: the
offline explorer fills the matrix once, the serving layer answers from it
forever -- and Figures 8-11 show what that costs as workloads and data
move.  It is built and fed by
:class:`~repro.adaptive.cluster.ClusterAdaptationController`, the one door
drift feedback enters through: residuals land in a shared
:class:`~repro.adaptive.detector.DriftDetector` under this shard's key, and
when a signal crosses its threshold the shard responds **off the serve
path**:

1. rows with over-tolerance residual evidence are *invalidated* -- their
   stale observations are erased, so they immediately fall back to the
   default plan (the anchor of the no-regression guarantee: the serving
   rule itself never changes);
2. the default plan of every responding row is re-executed and observed,
   re-anchoring the guarantee against current data;
3. the remaining execution budget goes to Algorithm-1 re-exploration
   (:class:`~repro.adaptive.reexplore.OnlineReexplorer`) -- invalidated
   rows have an infinite current best, so LimeQO ranks them first;
4. the decision snapshot is patched, so the next served batch is back to
   pure fancy indexing.  No ALS completion runs here: serving reads only
   observed plans, and the cluster's
   :class:`~repro.cluster.scheduler.RefreshScheduler` refreshes dirty shards
   on its own tick.

Steps 2-4 are one body (:meth:`AdaptationController._repair`): a recovery
pass on a quiet tick runs it over the backlog the responses left, a drift
response over the rows it just invalidated or found unseen.

Responses are budgeted (:data:`RESPONSE_BUDGET_CELLS` live executions)
and rate-limited (:data:`COOLDOWN_TICKS`), so a drifting tenant degrades
gracefully over several small responses instead of stalling the backend
with one giant re-exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..config import ExplorationConfig
from ..core.plan_cache import DEFAULT_HINT
from ..serving.service import ServingService
from ..telemetry.runtime import ADAPTIVE_GAUGES, AdaptiveMetrics
from .detector import DriftDetector, DriftStatus
from .reexplore import OnlineReexplorer

#: Live executions one response may spend: default-plan re-measurements plus
#: policy-selected exploration cells.  With the cooldown it is what keeps
#: adaptation from ever starving the serve path it protects.
RESPONSE_BUDGET_CELLS = 64
#: Controller ticks that must pass between two responses of one shard.
COOLDOWN_TICKS = 2
#: Cells per Algorithm-1 step of a response's re-exploration.
EXPLORE_BATCH_SIZE = 8
#: Seed of that re-exploration, which keeps replay deterministic.
EXPLORE_SEED = 0
#: Exceedances (or unseen serves) of one row within one window that get it
#: swept by a budgeted response below the global thresholds: repeated
#: evidence on one row is drift, not noise, even when its traffic share
#: never moves the aggregate score.
PERSISTENT_HITS = 2


class AdaptiveStats:
    """What adaptation has done: a view over shards'
    :class:`~repro.telemetry.runtime.AdaptiveMetrics` cells.

    A field sums the counters and ``backlog_rows`` over the shards and takes
    the max of the ``last_*`` gauges (floats; the rest are ints).  Each read
    goes to the cells; :meth:`as_dict` is a copy.  Assigning a field of a
    one-shard view writes its cell.
    """

    __slots__ = ("_shards",)

    def __init__(self, shards: Iterable[AdaptiveMetrics]) -> None:
        object.__setattr__(self, "_shards", tuple(shards))

    def __getattr__(self, name: str):
        if name not in AdaptiveMetrics.__slots__:
            raise AttributeError(name)
        values = [getattr(shard, name).value for shard in self._shards]
        return max([0.0, *values]) if name.startswith("last_") else int(sum(values))

    def __setattr__(self, name: str, value) -> None:
        (shard,) = self._shards
        cell = getattr(shard, name)
        if name in ADAPTIVE_GAUGES:
            cell.set(value)
        else:
            cell.inc(value - cell.value)

    def as_dict(self) -> Dict[str, float]:
        """Plain dictionary for dashboards and the benchmark reports."""
        return {name: getattr(self, name) for name in AdaptiveMetrics.__slots__}

    def __eq__(self, other) -> bool:
        return isinstance(other, AdaptiveStats) and self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"AdaptiveStats({self.as_dict()})"


@dataclass
class _ResponsePlan:
    """What one response did (exposed for tests/telemetry)."""

    status: DriftStatus
    invalidated: np.ndarray
    remeasured: int
    explored: int


class AdaptationController:
    """Responds to one shard's drift within budget.

    Parameters
    ----------
    service:
        The shard's live service, whose matrix/snapshot the controller
        maintains.
    oracle:
        Where fresh measurements come from -- anything satisfying the
        :class:`~repro.core.explorer.ExecutionOracle` protocol (the cluster
        controller passes a :class:`~repro.adaptive.reexplore.RowOracle`).
    detector:
        The cluster controller's shared detector.  Responses pick
        exploration cells with LimeQO, an :data:`EXPLORE_BATCH_SIZE`-cell
        step and :data:`EXPLORE_SEED`, which keeps replay deterministic.
    key:
        The detector key this shard's residuals are recorded under.
    metrics:
        The shard's :class:`~repro.telemetry.runtime.AdaptiveMetrics` (by
        default a private set): cells that outlive the controller, except
        ``backlog_rows``, which a new controller resets.
    """

    def __init__(
        self, service: ServingService, oracle, detector: DriftDetector, key: str, metrics=None
    ) -> None:
        self.service = service
        self.detector = detector
        self.key = key
        self.reexplorer = OnlineReexplorer(
            service.matrix,
            oracle,
            config=ExplorationConfig(batch_size=EXPLORE_BATCH_SIZE, seed=EXPLORE_SEED),
        )
        self._metrics = metrics if metrics is not None else AdaptiveMetrics()
        self._cooldown = 0
        #: Rows awaiting re-verification after a response touched them
        #: (sorted, unique).
        self._backlog = np.zeros(0, dtype=np.int64)
        self.last_response: Optional[_ResponsePlan] = None
        self._metrics.backlog_rows.set(0)

    @property
    def stats(self) -> AdaptiveStats:
        """This shard's counts, read from its cells: they span restarts."""
        return AdaptiveStats([self._metrics])

    # -- the recovery backlog ---------------------------------------------------------
    def _push_backlog(self, rows: np.ndarray) -> None:
        if rows.size:
            self._backlog = np.union1d(self._backlog, rows)

    def seed_backlog(self, rows) -> None:
        """Re-seed the recovery backlog (crash recovery hands it back here).

        The rows rejoin the re-verification queue exactly as if the
        response that created them had just run; the next quiet tick
        resumes the budgeted recovery passes.
        """
        self._push_backlog(np.asarray(rows, dtype=np.int64))
        self._prune_backlog()
        self._metrics.backlog_rows.set(self._backlog.size)

    def _prune_backlog(self) -> None:
        """Drop rows that have been re-verified.

        A row leaves the backlog once every one of its cells is *known*
        again -- completed observations or censored timeouts (a timeout is
        evidence too: the cancelled plan proved worse than the row's current
        best).  Anything less than the full row can silently strand upside
        on the default plan: a drifted optimum can land on any hint (the
        shift is idiosyncratic per row, not low-rank-predictable), so only
        full re-verification guarantees the lost upside is recovered rather
        than merely anchored back to the default plan.  Rows past the end of
        the matrix (cluster row migration) are dropped as unknowable.
        """
        if not self._backlog.size:
            return
        matrix = self.service.matrix
        in_range = self._backlog[self._backlog < matrix.n_queries]
        known_per_row = matrix.known_cells()[2]
        self._backlog = in_range[known_per_row[in_range] < matrix.n_hints]

    # -- the background loop ---------------------------------------------------------
    def tick(self) -> bool:
        """One controller heartbeat; returns True when work ran.

        The hot case -- no drift, empty backlog -- costs one
        windowed-statistics pass.  Triggered drift gets a full response:
        the window's drifted rows when the drift signal fired, and *all*
        in-window unseen rows whichever signal fired (an unseen row is
        unobserved whatever the trigger, and anchoring it costs one default
        execution).  Otherwise a non-empty recovery backlog gets one
        budgeted pass, so the upside a response anchored away is actually
        won back.  Otherwise per-row persistence still catches tails: a row
        deviating (or serving unseen) :data:`PERSISTENT_HITS` times within one
        window is drift even if its traffic share never moves the aggregate
        score (:data:`MIN_SAMPLES` gating does not apply -- the repetition
        requirement is the noise gate here), and gets a sweep response.
        """
        self._metrics.ticks.inc()
        if self._cooldown > 0:
            self._cooldown -= 1
            return False
        status = self.detector.status(self.key)
        self._metrics.last_drift_score.set(status.drift_score)
        self._metrics.last_unseen_rate.set(status.unseen_rate)
        if status.triggered:
            drifted = (
                self.detector.drifted_rows(self.key)
                if status.drift_triggered
                else np.zeros(0, dtype=np.int64)
            )
            self.respond(status, drifted, self.detector.unseen_rows(self.key))
        elif not self._recover():
            drifted = self.detector.drifted_rows(self.key, min_hits=PERSISTENT_HITS)
            unseen = self.detector.unseen_rows(self.key, min_hits=PERSISTENT_HITS)
            if not (drifted.size or unseen.size):
                return False
            self.respond(status, drifted, unseen, sweep=True)
        self._cooldown = COOLDOWN_TICKS
        return True

    def _recover(self) -> bool:
        """One budgeted :meth:`_repair` pass over the recovery backlog, if
        any is owed.  A pass always executes something: a row stays on the
        backlog only while it has an unexecuted cell, and budget is >= 1."""
        self._prune_backlog()
        if not self._backlog.size:
            return False
        self._repair(self._backlog)
        self._metrics.recovery_passes.inc()
        return True

    def respond(
        self,
        status: DriftStatus,
        drifted: np.ndarray,
        unseen: np.ndarray,
        sweep: bool = False,
    ) -> _ResponsePlan:
        """Run one budgeted response: invalidate ``drifted``, then
        :meth:`_repair` it with ``unseen`` (window rows, sorted unique;
        rows past the end of the matrix have migrated away and are
        skipped).  ``sweep=True`` marks a per-row-persistence response
        (below the global thresholds).
        """
        n_rows = self.service.matrix.n_queries
        drifted = drifted[drifted < n_rows]
        unseen = unseen[unseen < n_rows]
        if drifted.size:
            # Stale rows fall back to the default plan until re-verified.
            self.service.matrix.invalidate(drifted)
            self._metrics.invalidated_rows.inc(drifted.size)
        remeasured, explored = self._repair(np.union1d(drifted, unseen))

        self.detector.reset(self.key)
        self._metrics.responses.inc()
        if sweep:
            self._metrics.sweep_responses.inc()
        if status.drift_triggered:
            self._metrics.drift_responses.inc()
        if status.unseen_triggered:
            self._metrics.unseen_responses.inc()
        self.last_response = _ResponsePlan(status, drifted, remeasured, explored)
        return self.last_response

    def _repair(self, rows: np.ndarray) -> Tuple[int, int]:
        """Spend one response budget on ``rows``: anchor, explore, enqueue.

        The body a response and a recovery pass share.  Every row needs a
        *current* default-plan observation before anything else, so the
        rows whose default is unobserved are re-measured first, as many as
        the budget allows (a response bigger than its budget leaves the
        rest to later passes).  Budget left after that means every row is
        anchored, and it goes to Algorithm-1 re-exploration scoped to
        ``rows`` -- re-verifying a handful of rows can never cost live
        executions on rows that were healthy all along, and a non-default
        observation never lands on a row without a default one (the
        snapshot rule would serve it unconditionally).  With no rows named
        (a pure row-growth trigger before the new rows were ever served)
        the exploration is global.  The snapshot is then patched here, off
        the serve path, and the rows join the recovery backlog, which is
        journaled ahead so that a crash mid-drift recovers it.  Returns
        ``(remeasured, explored)`` live executions.
        """
        budget = RESPONSE_BUDGET_CELLS
        matrix = self.service.matrix
        unanchored = rows[
            ~matrix.is_observed_batch(rows, np.full(rows.size, DEFAULT_HINT))
        ]
        remeasured = self.reexplorer.remeasure_rows(unanchored[:budget], DEFAULT_HINT)
        explored = 0
        if budget > remeasured:
            explored = self.reexplorer.explore(
                budget - remeasured, rows=rows if rows.size else None
            )
        self._metrics.remeasured_cells.inc(remeasured)
        self._metrics.explored_cells.inc(explored)
        self.service.cache.current()
        self._push_backlog(rows)
        self._prune_backlog()
        if self.service.journal is not None:
            self.service.journal.log_adapt_backlog(self._backlog)
        self._metrics.backlog_rows.set(self._backlog.size)
        return remeasured, explored
