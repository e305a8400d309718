"""The adaptation controller: drift detection in, budgeted responses out.

:class:`AdaptationController` closes the loop the paper leaves open: the
offline explorer fills the matrix once, the serving layer answers from it
forever -- and Figures 8-11 show what that costs as workloads and data
move.  The controller watches live residuals through a
:class:`~repro.adaptive.detector.DriftDetector`, and when a signal crosses
its threshold it responds **off the serve path**:

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
   observed plans, and on a cluster the
   :class:`~repro.cluster.scheduler.RefreshScheduler` refreshes dirty shards
   on its own tick.

Responses are budgeted (``config.response_budget_cells`` live executions)
and rate-limited (``config.cooldown_ticks``), so a drifting tenant degrades
gracefully over several small responses instead of stalling the backend
with one giant re-exploration.

The controller implements the ``record(queries, hints, expected, measured)``
monitor hook, so attaching it is one assignment::

    controller = AdaptationController(service, oracle)
    service.monitor = controller            # residuals flow in
    ...
    service.record_measured(decisions, measured)   # per served batch
    controller.tick()                               # background cadence

Deployments built on the asyncio front door do not drive :meth:`tick`
themselves: :class:`repro.ingress.ServiceIngress` hosts it as a
background event-loop task (a
:class:`~repro.ingress.background.PeriodicTicker`) for as long as the
ingress is started, firing every ``IngressConfig.tick_interval_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Optional

import numpy as np

from ..config import AdaptiveConfig, ExplorationConfig
from ..errors import AdaptiveError
from ..serving.service import ServingService
from .detector import DEFAULT_KEY, DriftDetector, DriftStatus
from .reexplore import OnlineReexplorer


@dataclass
class AdaptiveStats:
    """Counters describing everything a controller has done so far."""

    ticks: int = 0
    responses: int = 0
    drift_responses: int = 0
    unseen_responses: int = 0
    sweep_responses: int = 0
    recovery_passes: int = 0
    invalidated_rows: int = 0
    remeasured_cells: int = 0
    explored_cells: int = 0
    backlog_rows: int = 0
    last_drift_score: float = 0.0
    last_unseen_rate: float = 0.0

    # The ``last_*`` fields are gauges (merged by max, reported as floats);
    # everything else is a monotone counter (summed, reported as ints).
    # as_dict/merge derive from the field list so a new counter can never
    # be silently dropped from one of them.
    @staticmethod
    def _is_gauge(name: str) -> bool:
        return name.startswith("last_")

    def as_dict(self) -> Dict[str, float]:
        """Plain dictionary for dashboards and the benchmark reports."""
        return {
            f.name: (
                float(getattr(self, f.name))
                if self._is_gauge(f.name)
                else int(getattr(self, f.name))
            )
            for f in fields(self)
        }

    @classmethod
    def merge(cls, parts: Iterable["AdaptiveStats"]) -> "AdaptiveStats":
        """Fold per-shard controller counters into one cluster-wide report."""
        merged = cls()
        for part in parts:
            for f in fields(cls):
                ours, theirs = getattr(merged, f.name), getattr(part, f.name)
                setattr(
                    merged,
                    f.name,
                    max(ours, theirs) if cls._is_gauge(f.name) else ours + theirs,
                )
        return merged


@dataclass
class _ResponsePlan:
    """What one response decided to do (exposed for tests/telemetry)."""

    status: DriftStatus
    invalidated: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    remeasured: int = 0
    explored: int = 0


class AdaptationController:
    """Watches one :class:`ServingService`; responds to drift within budget.

    Parameters
    ----------
    service:
        The live service whose matrix/snapshot the controller maintains.
    oracle:
        Where fresh measurements come from -- anything satisfying the
        :class:`~repro.core.explorer.ExecutionOracle` protocol (a
        :class:`~repro.adaptive.reexplore.RowOracle` over a DBMS callback,
        a :class:`~repro.core.explorer.MatrixOracle` over ground truth).
    config:
        Detection thresholds and response budgets (:class:`AdaptiveConfig`).
        Responses pick exploration cells with LimeQO, an
        ``explore_batch_size``-cell step and the config's seed, which keeps
        replay deterministic.
    detector:
        Optional externally owned detector (a cluster controller shares
        one across shards, keyed by shard id).
    key:
        The detector key this controller reads (default: the single-service
        key).
    """

    def __init__(
        self,
        service: ServingService,
        oracle,
        config: Optional[AdaptiveConfig] = None,
        detector: Optional[DriftDetector] = None,
        key: str = DEFAULT_KEY,
    ) -> None:
        if service is None:
            raise AdaptiveError("AdaptationController needs a live ServingService")
        self.service = service
        self.config = config or AdaptiveConfig()
        self.detector = detector if detector is not None else DriftDetector(self.config)
        self.key = key
        self.reexplorer = OnlineReexplorer(
            service.matrix,
            oracle,
            config=ExplorationConfig(
                batch_size=self.config.explore_batch_size, seed=self.config.seed
            ),
        )
        self.stats = AdaptiveStats()
        self._cooldown = 0
        self._backlog = np.zeros(0, dtype=np.int64)
        self.last_response: Optional[_ResponsePlan] = None

    # -- the monitor hook ---------------------------------------------------------
    def record(self, queries, hints, expected, measured) -> None:
        """Per-batch residual feedback (signature of ``ServingService.monitor``)."""
        self.detector.record(queries, hints, expected, measured, key=self.key)
        self.detector.note_row_count(self.service.matrix.n_queries, key=self.key)

    # -- the recovery backlog ---------------------------------------------------------
    @property
    def backlog(self) -> np.ndarray:
        """Rows awaiting re-verification after a response touched them."""
        return self._backlog.copy()

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
        self.stats.backlog_rows = int(self._backlog.size)

    def _journal_backlog(self) -> None:
        """Write the owed backlog ahead, so a crash mid-drift recovers it."""
        journal = getattr(self.service, "journal", None)
        if journal is not None:
            journal.log_adapt_backlog(self._backlog)

    def _prune_backlog(self) -> None:
        """Drop rows that have been re-verified.

        A row leaves the backlog once ``config.reverify_observations`` of
        its cells are *known* again -- completed observations or censored
        timeouts (a timeout is evidence too: the cancelled plan proved
        worse than the row's current best).  The ``None`` default demands
        every cell: a drifted optimum can land on any hint (the shift is
        idiosyncratic per row, not low-rank-predictable), so anything less
        can silently strand upside on the default plan.  Rows past the end
        of the matrix (cluster row migration) are dropped as unknowable.
        """
        if not self._backlog.size:
            return
        matrix = self.service.matrix
        if self.config.reverify_observations is None:
            target = matrix.n_hints
        else:
            target = min(self.config.reverify_observations, matrix.n_hints)
        in_range = self._backlog[self._backlog < matrix.n_queries]
        if not in_range.size:
            self._backlog = in_range
            return
        unknown = matrix.unknown_mask()
        known_counts = matrix.n_hints - unknown[in_range].sum(axis=1)
        self._backlog = in_range[known_counts < target]

    # -- the background loop ---------------------------------------------------------
    def tick(self) -> bool:
        """One controller heartbeat; returns True when work ran.

        Called from whatever background cadence the deployment has (the
        same place a cluster calls its refresh scheduler).  The hot case --
        no drift, empty backlog -- costs one windowed-statistics pass.
        Triggered drift gets a full response; otherwise a non-empty
        recovery backlog gets one budgeted exploration pass, so the upside
        a response anchored away is actually won back.
        """
        self.stats.ticks += 1
        if self._cooldown > 0:
            self._cooldown -= 1
            return False
        status = self.detector.status(self.key)
        self.stats.last_drift_score = status.drift_score
        self.stats.last_unseen_rate = status.unseen_rate
        if status.triggered:
            self.respond(status)
            self._cooldown = self.config.cooldown_ticks
            return True
        if self._recover():
            self._cooldown = self.config.cooldown_ticks
            return True
        # Below the global thresholds, per-row persistence still catches
        # tails: a row deviating (or serving unseen) ``persistent_hits``
        # times within one window is drift even if its traffic share never
        # moves the aggregate score.  min_samples gating does not apply --
        # the repetition requirement is the noise gate here.
        hits = self.config.persistent_hits
        persistent_drift = self.detector.drifted_rows(self.key, min_hits=hits)
        persistent_unseen = self.detector.unseen_rows(self.key, min_hits=hits)
        if persistent_drift.size or persistent_unseen.size:
            self.respond(
                status, drifted=persistent_drift, unseen=persistent_unseen,
                sweep=True,
            )
            self._cooldown = self.config.cooldown_ticks
            return True
        return False

    def _recover(self) -> bool:
        """One budgeted pass over the recovery backlog: anchor, then explore.

        Only backlog rows are executed (their predicted-best unknown cells
        first), so re-verifying a handful of rows can never cost live
        executions on rows that were healthy all along.  Rows whose
        default plan is still unobserved -- a response bigger than its
        budget leaves some -- are anchored *first*, and exploration is
        scoped to anchored rows only: a non-default observation landing on
        a row with no default observation would be served unconditionally
        by the snapshot rule, which is exactly the regression the anchor
        prevents.
        """
        self._prune_backlog()
        if not self._backlog.size:
            return False
        budget = self.config.response_budget_cells
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
        """Run one budgeted response.

        Without explicit row sets, the drifted rows come from the window
        when the drift signal triggered, and *all* in-window unseen rows
        are anchored regardless of which signal fired -- an unseen row is
        unobserved whatever the trigger, and anchoring it costs one
        default execution.  ``sweep=True`` marks a per-row-persistence
        response (below the global thresholds).
        """
        plan = _ResponsePlan(status=status)
        budget = self.config.response_budget_cells
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
            # Stale rows fall back to the default plan until re-verified.
            self.service.invalidate(drifted)
            plan.invalidated = drifted
            self.stats.invalidated_rows += int(drifted.size)

        # Re-anchor the no-regression guarantee: every responding row needs
        # a *current* default-plan observation before anything else.
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
            # Exploration is scoped to the rows this response is about;
            # with no specific rows (e.g. a pure row-growth trigger before
            # the new rows were ever served) fall back to a global pass.
            plan.explored = self.reexplorer.explore(
                budget, rows=anchor if anchor.size else None
            )
            self.stats.explored_cells += plan.explored

        # Pay for the rows this response touched here, off the serve path.
        self.service.cache.current()

        # Everything the response touched awaits re-verification: the
        # recovery passes on quiet ticks keep exploring these rows until
        # they carry enough fresh observations to serve a verified plan.
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

    # -- telemetry -----------------------------------------------------------------
    def report(self) -> AdaptiveStats:
        """The controller's counters (live object; copy if you must mutate)."""
        return self.stats
