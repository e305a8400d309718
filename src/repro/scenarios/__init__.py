"""Declarative traffic & drift scenarios: seeded, replayable serving timelines.

The ROADMAP's scenario-diversity goal, packaged: a scenario is a frozen
spec (tenants + phases + events), a mutable ground-truth world, and a
runner that drives a live :class:`~repro.cluster.ServingCluster` (one
shard by default) through it tick by tick:

* :mod:`repro.scenarios.spec` -- :class:`TenantSpec`, :class:`ScenarioPhase`,
  :class:`ScenarioEvent`, :class:`ScenarioSpec` (validated at construction)
  and :data:`ACTIONS`, the table of event actions,
* :mod:`repro.scenarios.world` -- the evolving per-tenant ground truth
  (drift, ETL floods, new templates, visibility horizons),
* :mod:`repro.scenarios.runner` -- :class:`ScenarioRunner` /
  :class:`ScenarioTrace`: arrivals, execution, adaptive feedback, replayable
  decision blobs,
* :mod:`repro.scenarios.primitives` -- the named library (sudden 70/30
  shift, gradual drift, diurnal mixes, flash crowds, template streams, ETL
  floods, tenant churn, shard-crash chaos) mapped to the paper's
  Figures 8-11.
"""

from .primitives import (
    diurnal_tenant_mix,
    drift_benchmark_scenarios,
    etl_flood,
    flash_crowd,
    gradual_data_drift,
    kill_shard_mid_drift,
    new_template_stream,
    restart_during_flash_crowd,
    standard_scenarios,
    sudden_workload_shift,
    tenant_churn,
)
from .runner import ScenarioRunner, ScenarioTrace, TickStats
from .spec import (
    ACTIONS,
    Action,
    ScenarioEvent,
    ScenarioPhase,
    ScenarioSpec,
    TenantSpec,
)
from .world import TenantWorld

__all__ = [
    "diurnal_tenant_mix",
    "drift_benchmark_scenarios",
    "etl_flood",
    "flash_crowd",
    "gradual_data_drift",
    "kill_shard_mid_drift",
    "new_template_stream",
    "restart_during_flash_crowd",
    "standard_scenarios",
    "sudden_workload_shift",
    "tenant_churn",
    "ScenarioRunner",
    "ScenarioTrace",
    "TickStats",
    "ACTIONS",
    "Action",
    "ScenarioEvent",
    "ScenarioPhase",
    "ScenarioSpec",
    "TenantSpec",
    "TenantWorld",
]
