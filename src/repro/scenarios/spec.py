"""Declarative scenario specifications: tenants, phases, events.

A scenario is a seeded, replayable description of how traffic and data
evolve over a span of *ticks* (one tick = one served batch window per
active tenant plus one background heartbeat).  Three layers compose:

* :class:`TenantSpec` -- a tenant's ground-truth workload shape (size,
  headroom, how much of it is visible before tick 0),
* :class:`ScenarioPhase` -- a contiguous run of ticks with one arrival
  regime: batch size, tenant mix, flash-crowd burst multiplier, cyclic
  diurnal modulation, and optional per-tick gradual data drift,
* :class:`ScenarioEvent` -- a one-shot disturbance at an absolute tick:
  sudden data drift, an ETL flood, a stream of new templates, the late
  30% of a workload shift arriving, tenant churn, a live shard addition,
  a shard crash, a crashed shard rejoining from its journal.

Everything is a frozen dataclass validated at construction, so a spec
either is runnable or raises :class:`~repro.errors.ScenarioError` at
definition time -- never mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from ..errors import ScenarioError

#: Event actions understood by the runner.  "Disturbances" are the ones the
#: recovery metric anchors on (see ``repro.experiments.adaptive``).
EVENT_ACTIONS = (
    "data_drift",      # sudden shift of a tenant's ground truth (Figs 10-11)
    "etl_flood",       # burst of incompressible ETL rows (Fig 8)
    "new_templates",   # brand-new query templates start arriving
    "activate_rest",   # the held-back split of a 70/30 workload shift (Fig 9)
    "tenant_join",     # a new tenant registers (churn)
    "tenant_leave",    # a tenant stops arriving (churn)
    "add_shard",       # live cluster rebalance
    "kill_shard",      # crash a shard process
    "restart_shard",   # recover a killed shard from its journal
)

#: Actions that name a shard via ``params={"shard": id}`` instead of a tenant.
_SHARD_ACTIONS = frozenset({"kill_shard", "restart_shard"})

DISTURBANCE_ACTIONS = frozenset(
    {"data_drift", "etl_flood", "new_templates", "activate_rest"}
)


@dataclass(frozen=True)
class TenantSpec:
    """Ground-truth workload shape for one tenant."""

    name: str
    n_queries: int = 120
    n_hints: int = 12
    headroom: float = 2.5
    initial_fraction: float = 1.0
    mean_default_latency: float = 10.0
    rank: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ScenarioError(
                f"tenant name must be non-empty and '/'-free, got {self.name!r}"
            )
        if self.n_queries < 2:
            raise ScenarioError(
                f"tenant {self.name!r} needs >= 2 queries, got {self.n_queries}"
            )
        if self.n_hints < 2:
            raise ScenarioError(
                f"tenant {self.name!r} needs >= 2 hints, got {self.n_hints}"
            )
        if self.headroom <= 1.0:
            raise ScenarioError(
                f"headroom must be > 1 (default/optimal), got {self.headroom}"
            )
        if not 0.0 < self.initial_fraction <= 1.0:
            raise ScenarioError(
                f"initial_fraction must be in (0, 1], got {self.initial_fraction}"
            )
        if self.mean_default_latency <= 0:
            raise ScenarioError(
                f"mean_default_latency must be > 0, got {self.mean_default_latency}"
            )
        if self.rank < 1:
            raise ScenarioError(f"rank must be >= 1, got {self.rank}")
        if self.seed < 0:
            raise ScenarioError(
                f"tenant {self.name!r}: seed must be >= 0, got {self.seed}"
            )

    @property
    def initial_queries(self) -> int:
        """Rows visible (arriving) before tick 0; at least one."""
        return max(1, int(round(self.initial_fraction * self.n_queries)))


@dataclass(frozen=True)
class ScenarioEvent:
    """A one-shot disturbance at an absolute tick (fired at tick start)."""

    tick: int
    action: str
    tenant: Optional[str] = None
    params: Mapping[str, float] = field(default_factory=dict)
    tenant_spec: Optional[TenantSpec] = None

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ScenarioError(f"event tick must be >= 0, got {self.tick}")
        if self.action not in EVENT_ACTIONS:
            raise ScenarioError(
                f"unknown event action {self.action!r}; expected one of "
                f"{list(EVENT_ACTIONS)}"
            )
        if self.action == "tenant_join" and self.tenant_spec is None:
            raise ScenarioError("tenant_join events need a tenant_spec")
        tenant_free = {"add_shard", "tenant_join"} | _SHARD_ACTIONS
        if self.action not in tenant_free and not self.tenant:
            raise ScenarioError(f"{self.action!r} events need a tenant")
        if self.action in _SHARD_ACTIONS:
            shard = self.params.get("shard", 0)
            if int(shard) != shard or int(shard) < 0:
                raise ScenarioError(
                    f"{self.action!r} events need a non-negative integer "
                    f"'shard' param, got {shard!r}"
                )

    def param(self, name: str, default: float) -> float:
        """Look up a numeric parameter with a default."""
        return float(self.params.get(name, default))


@dataclass(frozen=True)
class ScenarioPhase:
    """A contiguous run of ticks with one arrival regime."""

    name: str
    ticks: int
    batch_size: int = 128
    tenant_weights: Optional[Mapping[str, float]] = None
    burst_multiplier: float = 1.0
    drift_per_tick: Optional[Mapping[str, float]] = None
    diurnal_period: int = 0
    diurnal_amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ScenarioError(
                f"phase {self.name!r} needs >= 1 tick, got {self.ticks}"
            )
        if self.batch_size < 1:
            raise ScenarioError(
                f"phase {self.name!r} needs batch_size >= 1, got {self.batch_size}"
            )
        if self.burst_multiplier <= 0:
            raise ScenarioError(
                f"phase {self.name!r}: burst_multiplier must be > 0, got "
                f"{self.burst_multiplier}"
            )
        if self.tenant_weights is not None:
            if not self.tenant_weights:
                raise ScenarioError(f"phase {self.name!r}: empty tenant_weights")
            for tenant, weight in self.tenant_weights.items():
                if weight < 0:
                    raise ScenarioError(
                        f"phase {self.name!r}: negative weight for {tenant!r}"
                    )
        if self.drift_per_tick is not None:
            changed = float(self.drift_per_tick.get("changed_fraction", 0.0))
            growth = float(self.drift_per_tick.get("growth_factor", 1.0))
            if not 0.0 <= changed <= 1.0:
                raise ScenarioError(
                    f"phase {self.name!r}: drift changed_fraction must be in "
                    f"[0, 1], got {changed}"
                )
            if growth <= 0:
                raise ScenarioError(
                    f"phase {self.name!r}: drift growth_factor must be > 0, "
                    f"got {growth}"
                )
        if self.diurnal_period < 0:
            raise ScenarioError(
                f"phase {self.name!r}: diurnal_period must be >= 0"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ScenarioError(
                f"phase {self.name!r}: diurnal_amplitude must be in [0, 1), "
                f"got {self.diurnal_amplitude}"
            )

    @property
    def drifting(self) -> bool:
        """True when the phase applies gradual per-tick data drift."""
        return (
            self.drift_per_tick is not None
            and float(self.drift_per_tick.get("changed_fraction", 0.0)) > 0
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, seeded, replayable scenario."""

    name: str
    seed: int
    tenants: Tuple[TenantSpec, ...]
    phases: Tuple[ScenarioPhase, ...]
    events: Tuple[ScenarioEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario needs a non-empty name")
        if self.seed < 0:
            # Seeds feed np.random.default_rng([seed, stream]); a negative
            # value would pass construction and crash mid-run instead.
            raise ScenarioError(
                f"scenario {self.name!r}: seed must be >= 0, got {self.seed}"
            )
        if not self.tenants:
            raise ScenarioError(f"scenario {self.name!r} needs >= 1 tenant")
        if not self.phases:
            raise ScenarioError(f"scenario {self.name!r} needs >= 1 phase")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ScenarioError(f"scenario {self.name!r}: duplicate tenant names")
        known = set(names)
        # Tenants whose late split has not arrived yet: visibility is a
        # row-index prefix, so no event may append rows behind the gap.
        partial = {
            tenant.name for tenant in self.tenants if tenant.initial_fraction < 1.0
        }
        total = self.total_ticks
        down: set = set()  # shard ids killed and not yet restarted
        for event in sorted(self.events, key=lambda e: e.tick):
            if event.tick >= total:
                raise ScenarioError(
                    f"scenario {self.name!r}: event {event.action!r} at tick "
                    f"{event.tick} is past the end ({total} ticks)"
                )
            if event.action == "tenant_join":
                if event.tenant_spec.name in known:
                    raise ScenarioError(
                        f"scenario {self.name!r}: tenant "
                        f"{event.tenant_spec.name!r} joins twice"
                    )
                known.add(event.tenant_spec.name)
                if event.tenant_spec.initial_fraction < 1.0:
                    partial.add(event.tenant_spec.name)
            elif event.tenant is not None and event.tenant not in known:
                raise ScenarioError(
                    f"scenario {self.name!r}: event {event.action!r} references "
                    f"unknown tenant {event.tenant!r}"
                )
            if event.action == "add_shard" and down:
                raise ScenarioError(
                    f"scenario {self.name!r}: add_shard at tick {event.tick} "
                    f"while shards {sorted(down)} are down; the cluster "
                    "cannot rebalance during an outage"
                )
            if event.action == "kill_shard":
                shard = int(event.params.get("shard", 0))
                if shard in down:
                    raise ScenarioError(
                        f"scenario {self.name!r}: kill_shard at tick "
                        f"{event.tick} targets shard {shard}, which is "
                        "already down"
                    )
                down.add(shard)
            elif event.action == "restart_shard":
                shard = int(event.params.get("shard", 0))
                if shard not in down:
                    raise ScenarioError(
                        f"scenario {self.name!r}: restart_shard at tick "
                        f"{event.tick} targets shard {shard}, which was "
                        "never killed; schedule its kill_shard event first"
                    )
                down.discard(shard)
            if event.action == "activate_rest":
                partial.discard(event.tenant)
            elif event.action in ("etl_flood", "new_templates") and (
                event.tenant in partial
            ):
                raise ScenarioError(
                    f"scenario {self.name!r}: {event.action!r} at tick "
                    f"{event.tick} would append rows behind tenant "
                    f"{event.tenant!r}'s held-back split; schedule its "
                    "activate_rest event first"
                )

    # -- timeline ---------------------------------------------------------------
    @property
    def total_ticks(self) -> int:
        """Total scenario length in ticks."""
        return sum(phase.ticks for phase in self.phases)

    def phase_at(self, tick: int) -> Tuple[ScenarioPhase, int]:
        """The phase covering ``tick`` and the tick at which it started."""
        if not 0 <= tick < self.total_ticks:
            raise ScenarioError(
                f"tick {tick} out of range [0, {self.total_ticks})"
            )
        start = 0
        for phase in self.phases:
            if tick < start + phase.ticks:
                return phase, start
            start += phase.ticks
        raise ScenarioError("unreachable")  # pragma: no cover

    def events_at(self, tick: int) -> List[ScenarioEvent]:
        """Events firing at ``tick``, in declaration order."""
        return [event for event in self.events if event.tick == tick]

    def first_disturbance_tick(self) -> Optional[int]:
        """Tick of the first drift-like disturbance (None for a calm run).

        The recovery metric compares serving quality before and after this
        tick: disturbance events plus the start of any gradually drifting
        phase count.
        """
        candidates = [
            event.tick
            for event in self.events
            if event.action in DISTURBANCE_ACTIONS
        ]
        start = 0
        for phase in self.phases:
            if phase.drifting:
                candidates.append(start)
            start += phase.ticks
        return min(candidates) if candidates else None

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"{self.name}: {len(self.tenants)} tenant(s), "
            f"{len(self.phases)} phase(s) / {self.total_ticks} ticks, "
            f"{len(self.events)} event(s), seed={self.seed}"
        )
