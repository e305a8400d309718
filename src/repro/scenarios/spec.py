"""Declarative scenario specifications: tenants, phases, events.

A scenario is a seeded, replayable description of how traffic and data
evolve over a span of *ticks* (one tick = one served batch window per
active tenant plus one background heartbeat).  Three layers compose:

* :class:`TenantSpec` -- a tenant's ground-truth workload shape (size and
  how much of it is visible before tick 0),
* :class:`ScenarioPhase` -- a contiguous run of ticks with one arrival
  regime: batch size, flash-crowd burst multiplier, cyclic diurnal
  modulation of the tenant mix, and optional per-tick gradual data drift,
* :class:`ScenarioEvent` -- a one-shot disturbance at an absolute tick:
  sudden data drift, an ETL flood, a stream of new templates, the late
  30% of a workload shift arriving, tenant churn, a live shard addition,
  a shard crash, a crashed shard rejoining from its journal.

:data:`ACTIONS` is the one table of event actions: what an event names,
the ``params`` keys it must give (each checked by :data:`PARAMETERS`) and
whether it disturbs; ``repro.scenarios.runner.APPLY`` does each, keyed the
same.  A phase's ``drift_per_tick`` takes ``data_drift``'s keys.

Everything is a frozen dataclass validated at construction, so a spec
either is runnable or raises :class:`~repro.errors.ScenarioError` at
definition time -- never mid-run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ScenarioError


@dataclass(frozen=True)
class Action:
    """What an event of one action declares: the thing it names
    (``"tenant"``, ``"tenant_spec"``, ``"shard"``, or ``""`` for nothing),
    the parameter keys it requires, and whether it is a *disturbance*, one
    the recovery metric anchors on (see ``repro.experiments.adaptive``)."""

    names: str
    keys: Tuple[str, ...]
    disturbs: bool


#: Every event action, keyed as ``repro.scenarios.runner.APPLY`` is.
ACTIONS: Dict[str, Action] = {
    # sudden shift of a tenant's ground truth (Figs 10-11)
    "data_drift": Action("tenant", ("changed_fraction", "growth_factor"), disturbs=True),
    "etl_flood": Action("tenant", ("count",), disturbs=True),  # incompressible rows (Fig 8)
    "new_templates": Action("tenant", ("count",), disturbs=True),  # unseen templates arrive
    "activate_rest": Action("tenant", (), disturbs=True),  # the late 30% of a shift (Fig 9)
    "tenant_join": Action("tenant_spec", (), disturbs=False),  # churn: a tenant registers
    "tenant_leave": Action("tenant", (), disturbs=False),  # churn: it stops arriving
    "add_shard": Action("", (), disturbs=False),  # live cluster rebalance
    "kill_shard": Action("shard", ("shard",), disturbs=False),  # crash a shard process
    "restart_shard": Action("shard", ("shard",), disturbs=False),  # recover it from its journal
}

#: Parameter key -> what its value must be, and the test a finite number passes.
PARAMETERS = {
    "changed_fraction": ("in [0, 1]", lambda value: 0.0 <= value <= 1.0),
    "growth_factor": ("> 0", lambda value: value > 0),
    "count": ("an integer >= 1", lambda value: value >= 1 and value == int(value)),
    "shard": ("an integer >= 0", lambda value: value >= 0 and value == int(value)),
}


def _check_params(params: Mapping[str, float], keys: Tuple[str, ...], where: str) -> None:
    """Refuse ``params`` unless it holds exactly ``keys``, each a finite
    number (never a bool) that passes its :data:`PARAMETERS` test."""
    missing = [key for key in keys if key not in params]
    unknown = [key for key in params if key not in keys]
    if missing or unknown:
        raise ScenarioError(f"{where} takes {list(keys)}; missing {missing}, unknown {unknown}")
    for key in keys:
        value, (rule, test) = params[key], PARAMETERS[key]
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (number and math.isfinite(value) and test(value)):
            raise ScenarioError(f"{where}: {key!r} must be {rule}, got {value!r}")


def _check_ticks(value, minimum: int, what: str) -> None:
    """Refuse a tick or tick count that is no integer >= ``minimum`` (or a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ScenarioError(f"{what} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class TenantSpec:
    """Ground-truth workload shape for one tenant."""

    name: str
    n_queries: int = 120
    n_hints: int = 12
    initial_fraction: float = 1.0
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
        if not 0.0 < self.initial_fraction <= 1.0:
            raise ScenarioError(
                f"initial_fraction must be in (0, 1], got {self.initial_fraction}"
            )
        if self.seed < 0:
            raise ScenarioError(
                f"tenant {self.name!r}: seed must be >= 0, got {self.seed}"
            )


@dataclass(frozen=True)
class ScenarioEvent:
    """A one-shot disturbance at an absolute tick (fired at tick start)."""

    tick: int
    action: str
    tenant: Optional[str] = None
    params: Mapping[str, float] = field(default_factory=dict)
    tenant_spec: Optional[TenantSpec] = None

    def __post_init__(self) -> None:
        _check_ticks(self.tick, 0, "event tick")
        action = ACTIONS.get(self.action)
        if action is None:
            raise ScenarioError(
                f"unknown event action {self.action!r}; expected one of "
                f"{list(ACTIONS)}"
            )
        if action.names == "tenant" and not self.tenant:
            raise ScenarioError(f"{self.action!r} events need a tenant")
        if action.names != "tenant" and self.tenant is not None:
            raise ScenarioError(f"{self.action!r} events name no tenant, got {self.tenant!r}")
        if action.names == "tenant_spec" and not isinstance(self.tenant_spec, TenantSpec):
            raise ScenarioError(f"{self.action!r} events need a tenant_spec")
        if action.names != "tenant_spec" and self.tenant_spec is not None:
            raise ScenarioError(f"{self.action!r} events take no tenant_spec")
        _check_params(self.params, action.keys, f"a {self.action!r} event at tick {self.tick}")


@dataclass(frozen=True)
class ScenarioPhase:
    """A contiguous run of ticks with one arrival regime."""

    name: str
    ticks: int
    batch_size: int = 128
    burst_multiplier: float = 1.0
    drift_per_tick: Optional[Mapping[str, float]] = None
    diurnal_period: int = 0
    diurnal_amplitude: float = 0.0

    def __post_init__(self) -> None:
        _check_ticks(self.ticks, 1, f"phase {self.name!r}: ticks")
        if self.batch_size < 1:
            raise ScenarioError(
                f"phase {self.name!r} needs batch_size >= 1, got {self.batch_size}"
            )
        if self.burst_multiplier <= 0:
            raise ScenarioError(
                f"phase {self.name!r}: burst_multiplier must be > 0, got "
                f"{self.burst_multiplier}"
            )
        if self.drift_per_tick is not None:
            where = f"phase {self.name!r}: drift_per_tick"
            _check_params(self.drift_per_tick, ACTIONS["data_drift"].keys, where)
        if self.diurnal_period < 0:
            raise ScenarioError(
                f"phase {self.name!r}: diurnal_period must be >= 0"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ScenarioError(
                f"phase {self.name!r}: diurnal_amplitude must be in [0, 1), "
                f"got {self.diurnal_amplitude}"
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
                shard = int(event.params["shard"])
                if shard in down:
                    raise ScenarioError(
                        f"scenario {self.name!r}: kill_shard at tick "
                        f"{event.tick} targets shard {shard}, which is "
                        "already down"
                    )
                down.add(shard)
            elif event.action == "restart_shard":
                shard = int(event.params["shard"])
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
            if ACTIONS[event.action].disturbs
        ]
        start = 0
        for phase in self.phases:
            drift = phase.drift_per_tick
            if drift is not None and drift["changed_fraction"] > 0:
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
