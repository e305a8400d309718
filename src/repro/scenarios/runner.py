"""The scenario runner: a seeded timeline driving a live serving stack.

:class:`ScenarioRunner` executes a :class:`~repro.scenarios.spec.ScenarioSpec`
tick by tick against a :class:`~repro.cluster.ServingCluster` (one shard by
default; a one-shard cluster decides exactly what a lone
:class:`~repro.serving.ServingService` over the same rows would).  Per tick
it:

1. fires the tick's events (drift, floods, churn, shard adds, shard
   crashes / journal-recovery rejoins) against the mutable
   :class:`~repro.scenarios.world.TenantWorld` ground truth,
2. samples arrivals from the phase's tenant mix (diurnal modulation and
   flash-crowd bursts included) with a dedicated arrival RNG stream,
3. serves each tenant's batch, *executes* the served hints against the
   current ground truth, and -- in adaptive mode -- feeds the measured
   latencies back through :meth:`ClusterAdaptationController.record`,
4. runs one background heartbeat (adaptation controller tick, cluster
   refresh-scheduler tick) off the serve path.

Everything random derives from ``spec.seed`` through named RNG streams
(arrivals, world mutations, bootstrap), and arrivals/mutations never depend
on serving decisions -- so a static and an adaptive run see byte-identical
traffic and ground truth, and two runs of the same configuration produce
byte-identical decision traces (asserted in
``benchmarks/test_adaptive_drift.py``).
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..adaptive.cluster import ClusterAdaptationController
from ..cluster.cluster import ServingCluster
from ..errors import ScenarioError
from ..serving.batch_cache import BatchDecisions
from .spec import ScenarioEvent, ScenarioPhase, ScenarioSpec
from .world import TenantWorld


@dataclass(frozen=True)
class TickStats:
    """What one tick served, against current ground truth."""

    tick: int
    phase: str
    arrivals: int
    served_latency: float
    default_latency: float
    optimal_latency: float


@dataclass
class ScenarioTrace:
    """Everything a scenario run produced, for metrics and replay checks."""

    scenario: str
    adaptive: bool
    ticks: List[TickStats] = field(default_factory=list)
    adaptive_report: Optional[Dict[str, float]] = None
    _decision_parts: List[np.ndarray] = field(default_factory=list)

    # -- recording (runner-facing) ------------------------------------------------
    def add_decisions(self, queries: np.ndarray, hints: np.ndarray) -> None:
        self._decision_parts.append(np.asarray(queries, dtype=np.int64))
        self._decision_parts.append(np.asarray(hints, dtype=np.int64))

    def add_tick(self, stats: TickStats) -> None:
        self.ticks.append(stats)

    # -- series ----------------------------------------------------------------------
    @property
    def served(self) -> np.ndarray:
        """Per-tick total true latency of the served plans."""
        return np.array([t.served_latency for t in self.ticks])

    @property
    def default(self) -> np.ndarray:
        """Per-tick total true latency had every arrival used the default."""
        return np.array([t.default_latency for t in self.ticks])

    @property
    def optimal(self) -> np.ndarray:
        """Per-tick total true latency of the per-row optimal plans."""
        return np.array([t.optimal_latency for t in self.ticks])

    @property
    def arrivals(self) -> np.ndarray:
        """Per-tick arrival counts."""
        return np.array([t.arrivals for t in self.ticks], dtype=np.int64)

    def improvement(self) -> np.ndarray:
        """Per-tick fractional win over always-default serving (0 = none)."""
        default = self.default
        served = self.served
        out = np.zeros(default.shape)
        nonzero = default > 0
        out[nonzero] = 1.0 - served[nonzero] / default[nonzero]
        return out

    def decisions_blob(self) -> bytes:
        """Canonical bytes of every (queries, hints) decision in run order.

        Two runs are *replays* of each other iff their blobs are equal.
        """
        if not self._decision_parts:
            return b""
        return np.concatenate(self._decision_parts).tobytes()

    def summary(self) -> Dict[str, float]:
        """Headline totals for reports."""
        served, default = self.served, self.default
        return {
            "ticks": float(len(self.ticks)),
            "arrivals": float(self.arrivals.sum()),
            "served_latency": float(served.sum()),
            "default_latency": float(default.sum()),
            "optimal_latency": float(self.optimal.sum()),
            "mean_improvement": float(self.improvement().mean()) if self.ticks else 0.0,
        }


class _ClusterTarget:
    """Tenants registered on a ServingCluster; adaptation per shard."""

    def __init__(
        self,
        worlds: Dict[str, TenantWorld],
        n_hints: int,
        n_shards: int,
        durability_dir: Optional[str] = None,
    ) -> None:
        self.worlds = worlds
        self.cluster = ServingCluster(
            n_shards, n_hints, durability_dir=durability_dir
        )
        self.controller: Optional[ClusterAdaptationController] = None

    def register(self, tenant: str, names: List[str]) -> None:
        # Cluster tenant-global indices == world row order.
        if tenant in self.cluster.tenants:
            self.cluster.add_queries(tenant, names)
        else:
            self.cluster.add_tenant(tenant, names)

    def attach_controller(self) -> None:
        def cell_lookup(key: str, hint: int) -> float:
            tenant, name = key.split("/", 1)
            world = self.worlds[tenant]
            return world.latency(world.row_of(name), hint)

        self.controller = ClusterAdaptationController(self.cluster, cell_lookup)

    def serve(self, tenant: str, local_queries: np.ndarray) -> BatchDecisions:
        return self.cluster.serve_batch(tenant, local_queries)

    def observe(self, tenant: str, local_queries, hints, latencies) -> None:
        self.cluster.observe_batch(tenant, local_queries, hints, latencies)

    def record_measured(
        self, tenant: str, decisions: BatchDecisions, measured: np.ndarray
    ) -> None:
        if self.controller is not None:
            self.controller.record(tenant, decisions, measured)

    def background_tick(self) -> None:
        if self.controller is not None:
            self.controller.tick()
        self.cluster.tick()

    def add_shard(self) -> None:
        self.cluster.add_shard()
        if self.controller is not None:
            self.controller.notify_topology_change()

    def kill_shard(self, shard_id: int) -> None:
        self.cluster.kill_shard(shard_id)

    def restart_shard(self, shard_id: int) -> None:
        state = self.cluster.restart_shard(shard_id)
        if self.controller is not None and state.backlog.size:
            self.controller.restore_backlog(shard_id, state.backlog)

    def adaptive_report(self) -> Optional[Dict[str, float]]:
        if self.controller is None:
            return None
        return self.controller.report().as_dict()


class ScenarioRunner:
    """Executes one scenario against a serving target.

    Parameters
    ----------
    spec:
        The scenario timeline.
    target:
        ``"cluster"`` (a :class:`ServingCluster` of ``n_shards`` shards), or
        a *callable* ``factory(worlds) -> target`` returning a custom target
        object implementing the same protocol as the built-in
        (``register`` / ``serve`` / ``observe`` / ``record_measured`` /
        ``background_tick`` / ``add_shard`` / ``kill_shard`` /
        ``restart_shard`` / ``adaptive_report``).  The factory hook is how
        alternative serving paths -- e.g. the asyncio ingress in
        ``benchmarks/test_ingress_load.py`` -- replay byte-identical
        scenario traffic without the runner knowing about them.
    adaptive:
        With False the serving stack is a *static snapshot cache*: it is
        bootstrapped once and never told what execution measured -- the
        baseline the drift benchmark compares against.  With True the
        adaptation controller closes the loop.
    bootstrap_coverage:
        Fraction of initially visible rows whose true-best hint is observed
        before tick 0 (models converged offline exploration, Figure 2's
        steady state).  The default column is always observed.
    n_shards:
        Shards of the built-in cluster target.
    durability_dir:
        Directory for the cluster target's per-shard write-ahead journals.
        Required (in spirit) by chaos specs containing ``kill_shard`` /
        ``restart_shard`` events: when those are present and no directory
        is given, the runner creates a temporary one per :meth:`run` and
        removes it afterwards, so chaos scenarios work out of the box.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        target: Union[str, Callable] = "cluster",
        adaptive: bool = True,
        bootstrap_coverage: float = 0.85,
        n_shards: int = 1,
        durability_dir: Optional[str] = None,
    ) -> None:
        self._target_factory = target if callable(target) else None
        if self._target_factory is None and target != "cluster":
            raise ScenarioError(
                f"target must be 'cluster' or a factory callable, got {target!r}"
            )
        if not 0.0 <= bootstrap_coverage <= 1.0:
            raise ScenarioError(
                f"bootstrap_coverage must be in [0, 1], got {bootstrap_coverage}"
            )
        hints = {t.n_hints for t in spec.tenants} | {
            e.tenant_spec.n_hints
            for e in spec.events
            if e.tenant_spec is not None
        }
        if len(hints) != 1:
            raise ScenarioError(
                f"scenario {spec.name!r}: every tenant must share one hint-set "
                f"width, got {sorted(hints)}"
            )
        self.spec = spec
        self.adaptive = bool(adaptive)
        self.bootstrap_coverage = float(bootstrap_coverage)
        self.n_hints = hints.pop()
        self.n_shards = int(n_shards)
        self.durability_dir = durability_dir
        self._needs_durability = any(
            event.action in ("kill_shard", "restart_shard")
            for event in spec.events
        )

    # -- construction ------------------------------------------------------------
    def _build_target(
        self,
        worlds: Dict[str, TenantWorld],
        durability_dir: Optional[str] = None,
    ):
        if self._target_factory is not None:
            return self._target_factory(worlds)
        return _ClusterTarget(
            worlds, self.n_hints, self.n_shards, durability_dir=durability_dir
        )

    def _bootstrap(self, world: TenantWorld, target, rng: np.random.Generator) -> None:
        """Converged pre-drift state: default column + most true-best hints."""
        tenant = world.spec.name
        rows = np.arange(world.visible, dtype=np.int64)
        target.observe(
            tenant, rows, np.zeros(rows.size, dtype=np.int64),
            world.latencies[rows, 0],
        )
        covered = rows[rng.random(rows.size) < self.bootstrap_coverage]
        if covered.size:
            best = world.latencies[covered].argmin(axis=1)
            target.observe(
                tenant, covered, best, world.latencies[covered, best]
            )

    # -- the run --------------------------------------------------------------------
    def run(self) -> ScenarioTrace:
        """Execute the full timeline; returns the trace."""
        durability_dir = self.durability_dir
        scratch: Optional[str] = None
        if durability_dir is None and self._needs_durability:
            scratch = tempfile.mkdtemp(prefix="repro-scenario-wal-")
            durability_dir = scratch
        try:
            return self._run(durability_dir)
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)

    def _run(self, durability_dir: Optional[str]) -> ScenarioTrace:
        arrival_rng = np.random.default_rng([self.spec.seed, 11])
        world_rng = np.random.default_rng([self.spec.seed, 23])
        bootstrap_rng = np.random.default_rng([self.spec.seed, 5])

        worlds: Dict[str, TenantWorld] = {}
        order: List[str] = []
        target = self._build_target(worlds, durability_dir)
        for tenant_spec in self.spec.tenants:
            world = TenantWorld(tenant_spec, seed=self.spec.seed)
            worlds[tenant_spec.name] = world
            order.append(tenant_spec.name)
            target.register(tenant_spec.name, world.names[: world.visible])
            self._bootstrap(world, target, bootstrap_rng)
        if self.adaptive:
            target.attach_controller()

        trace = ScenarioTrace(scenario=self.spec.name, adaptive=self.adaptive)
        for tick in range(self.spec.total_ticks):
            for event in self.spec.events_at(tick):
                self._fire(event, worlds, order, target, world_rng)
            phase, phase_start = self.spec.phase_at(tick)
            if phase.drift_per_tick is not None:
                changed = float(phase.drift_per_tick.get("changed_fraction", 0.0))
                growth = float(phase.drift_per_tick.get("growth_factor", 1.0))
                for tenant in order:
                    if worlds[tenant].active:
                        worlds[tenant].apply_drift(changed, growth, world_rng)
            self._run_tick(
                tick, phase, tick - phase_start, worlds, order, target,
                arrival_rng, trace,
            )
            if self.adaptive:
                target.background_tick()
        trace.adaptive_report = target.adaptive_report()
        return trace

    def _run_tick(
        self,
        tick: int,
        phase: ScenarioPhase,
        phase_tick: int,
        worlds: Dict[str, TenantWorld],
        order: List[str],
        target,
        arrival_rng: np.random.Generator,
        trace: ScenarioTrace,
    ) -> None:
        weights = self._weights(phase, phase_tick, worlds, order)
        total_weight = float(sum(weights.values()))
        served_latency = default_latency = optimal_latency = 0.0
        arrivals = 0
        if total_weight > 0:
            batch = max(1, int(round(phase.batch_size * phase.burst_multiplier)))
            active = [t for t in order if weights.get(t, 0.0) > 0]
            shares = np.array([weights[t] for t in active]) / total_weight
            counts = arrival_rng.multinomial(batch, shares)
            for tenant, count in zip(active, counts):
                if count == 0:
                    continue
                world = worlds[tenant]
                local = arrival_rng.integers(0, world.visible, size=int(count))
                decisions = target.serve(tenant, local)
                measured = world.latencies[local, decisions.hints]
                if self.adaptive:
                    target.record_measured(tenant, decisions, measured)
                trace.add_decisions(decisions.queries, decisions.hints)
                served_latency += float(measured.sum())
                default_latency += float(world.default_latencies(local).sum())
                optimal_latency += float(world.optimal_latencies(local).sum())
                arrivals += int(count)
        trace.add_tick(
            TickStats(
                tick=tick,
                phase=phase.name,
                arrivals=arrivals,
                served_latency=served_latency,
                default_latency=default_latency,
                optimal_latency=optimal_latency,
            )
        )

    def _weights(
        self,
        phase: ScenarioPhase,
        phase_tick: int,
        worlds: Dict[str, TenantWorld],
        order: List[str],
    ) -> Dict[str, float]:
        """The phase's tenant mix, filtered to live tenants, diurnally modulated."""
        weights: Dict[str, float] = {}
        for position, tenant in enumerate(order):
            world = worlds[tenant]
            if not world.active or world.visible == 0:
                continue
            if phase.tenant_weights is not None:
                base = float(phase.tenant_weights.get(tenant, 0.0))
            else:
                base = 1.0
            if base <= 0:
                continue
            if phase.diurnal_period > 0:
                angle = 2.0 * np.pi * (
                    phase_tick / phase.diurnal_period + position / max(1, len(order))
                )
                base *= 1.0 + phase.diurnal_amplitude * np.sin(angle)
            weights[tenant] = max(0.0, base)
        return weights

    def _fire(
        self,
        event: ScenarioEvent,
        worlds: Dict[str, TenantWorld],
        order: List[str],
        target,
        world_rng: np.random.Generator,
    ) -> None:
        if event.action == "data_drift":
            worlds[event.tenant].apply_drift(
                event.param("changed_fraction", 0.25),
                event.param("growth_factor", 1.1),
                world_rng,
            )
        elif event.action == "etl_flood":
            world = worlds[event.tenant]
            names = world.add_etl_rows(
                int(event.param("count", 8)),
                event.param("latency", 20.0 * world.spec.mean_default_latency),
                event.param("jitter", 0.01),
                world_rng,
            )
            target.register(event.tenant, names)
        elif event.action == "new_templates":
            world = worlds[event.tenant]
            names = world.add_template_rows(int(event.param("count", 8)), world_rng)
            target.register(event.tenant, names)
        elif event.action == "activate_rest":
            names = worlds[event.tenant].activate_rest()
            if names:
                target.register(event.tenant, names)
        elif event.action == "tenant_join":
            world = TenantWorld(event.tenant_spec, seed=self.spec.seed)
            worlds[event.tenant_spec.name] = world
            order.append(event.tenant_spec.name)
            # Joiners start cold: no bootstrap -- adapting to them is the point.
            target.register(event.tenant_spec.name, world.names[: world.visible])
        elif event.action == "tenant_leave":
            worlds[event.tenant].active = False
        elif event.action == "add_shard":
            target.add_shard()
        elif event.action == "kill_shard":
            target.kill_shard(int(event.params.get("shard", 0)))
        elif event.action == "restart_shard":
            target.restart_shard(int(event.params.get("shard", 0)))
        else:  # pragma: no cover - spec validation rejects unknown actions
            raise ScenarioError(f"unhandled event action {event.action!r}")
