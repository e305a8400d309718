"""Reusable scenario primitives and the named scenario library.

Each builder composes :class:`~repro.scenarios.spec.ScenarioSpec` pieces
into one canonical robustness story from the paper's Section 5 -- plus the
serving-scale stories (flash crowds, diurnal mixes, tenant churn) the
ROADMAP's scenario-diversity goal asks for:

* :func:`sudden_workload_shift`  -- the 70/30 split, late 30% arriving at
  once (Figure 9),
* :func:`gradual_data_drift`     -- small per-tick drift compounding into
  the Figure 10 curve,
* :func:`diurnal_tenant_mix`     -- cyclic tenant weights with a mid-cycle
  data shift,
* :func:`flash_crowd`            -- a 4x arrival burst landing exactly on
  a data shift,
* :func:`new_template_stream`    -- batches of unseen templates arriving
  over several ticks,
* :func:`etl_flood`              -- incompressible ETL rows flooding in
  while the base workload drifts (Figure 8 meets Figure 11),
* :func:`tenant_churn`           -- tenants joining cold / leaving live
  with a shard added mid-run,
* :func:`kill_shard_mid_drift`   -- a shard crashes mid-drift and rejoins
  from its write-ahead journal,
* :func:`restart_during_flash_crowd` -- a crashed shard rejoins in the
  middle of a 4x burst.

All builders are pure: same seed, same spec -- replay determinism starts
here.  Each story has one size; ``tests/builders.py::shrunk`` gives tests a
smaller copy.  :func:`standard_scenarios` is the whole library by name;
:func:`drift_benchmark_scenarios` is the six-scenario subset the
``benchmarks/test_adaptive_drift.py`` acceptance gate runs on a one-shard
cluster.
"""

from __future__ import annotations

from typing import Dict

from .spec import ScenarioEvent, ScenarioPhase, ScenarioSpec, TenantSpec

#: Hint-set width of every tenant in the library.
N_HINTS = 12


def sudden_workload_shift(seed: int = 0) -> ScenarioSpec:
    """Figure 9: 70% of the workload is known, the other 30% arrives at once."""
    return ScenarioSpec(
        name="sudden_workload_shift",
        seed=seed,
        tenants=(
            TenantSpec(
                name="web",
                n_queries=120,
                n_hints=N_HINTS,
                initial_fraction=0.7,
            ),
        ),
        phases=(
            ScenarioPhase(name="steady", ticks=12, batch_size=128),
            ScenarioPhase(name="shifted", ticks=20, batch_size=128),
        ),
        events=(
            ScenarioEvent(tick=12, action="activate_rest", tenant="web"),
        ),
    )


def gradual_data_drift(seed: int = 0) -> ScenarioSpec:
    """Figure 10: a little of the data ages every tick, compounding."""
    return ScenarioSpec(
        name="gradual_data_drift",
        seed=seed,
        tenants=(
            TenantSpec(name="analytics", n_queries=120, n_hints=N_HINTS),
        ),
        phases=(
            ScenarioPhase(name="steady", ticks=10, batch_size=128),
            ScenarioPhase(
                name="aging",
                ticks=12,
                batch_size=128,
                drift_per_tick={"changed_fraction": 0.04, "growth_factor": 1.008},
            ),
            ScenarioPhase(name="settled", ticks=12, batch_size=128),
        ),
    )


def diurnal_tenant_mix(seed: int = 0) -> ScenarioSpec:
    """Three tenants on a day/night cycle; one drifts mid-cycle."""
    tenants = tuple(
        TenantSpec(name=name, n_queries=60, n_hints=N_HINTS, seed=i)
        for i, name in enumerate(("morning", "midday", "evening"))
    )
    return ScenarioSpec(
        name="diurnal_tenant_mix",
        seed=seed,
        tenants=tenants,
        phases=(
            ScenarioPhase(
                name="cycling",
                ticks=32,
                batch_size=128,
                diurnal_period=8,
                diurnal_amplitude=0.8,
            ),
        ),
        events=(
            ScenarioEvent(
                tick=12,
                action="data_drift",
                tenant="midday",
                params={"changed_fraction": 0.35, "growth_factor": 1.15},
            ),
        ),
    )


def flash_crowd(seed: int = 0) -> ScenarioSpec:
    """A 4x arrival burst lands exactly when the data shifts under it."""
    return ScenarioSpec(
        name="flash_crowd",
        seed=seed,
        tenants=(
            TenantSpec(name="storefront", n_queries=120, n_hints=N_HINTS),
        ),
        phases=(
            ScenarioPhase(name="calm", ticks=10, batch_size=96),
            ScenarioPhase(
                name="burst",
                ticks=8,
                batch_size=96,
                burst_multiplier=4.0,
            ),
            ScenarioPhase(name="after", ticks=14, batch_size=96),
        ),
        events=(
            ScenarioEvent(
                tick=10,
                action="data_drift",
                tenant="storefront",
                params={"changed_fraction": 0.30, "growth_factor": 1.15},
            ),
        ),
    )


def new_template_stream(seed: int = 0) -> ScenarioSpec:
    """Unseen query templates keep arriving in waves."""
    return ScenarioSpec(
        name="new_template_stream",
        seed=seed,
        tenants=(
            TenantSpec(name="reports", n_queries=120, n_hints=N_HINTS),
        ),
        phases=(
            ScenarioPhase(name="steady", ticks=10, batch_size=128),
            ScenarioPhase(name="stream", ticks=14, batch_size=128),
            ScenarioPhase(name="settled", ticks=8, batch_size=128),
        ),
        events=tuple(
            ScenarioEvent(
                tick=tick,
                action="new_templates",
                tenant="reports",
                params={"count": 10},
            )
            for tick in (10, 13, 16, 19)
        ),
    )


def etl_flood(seed: int = 0) -> ScenarioSpec:
    """Figure 8 meets Figure 11: an ETL flood masks a concurrent data shift."""
    return ScenarioSpec(
        name="etl_flood",
        seed=seed,
        tenants=(
            TenantSpec(name="warehouse", n_queries=120, n_hints=N_HINTS),
        ),
        phases=(
            ScenarioPhase(name="steady", ticks=10, batch_size=128),
            ScenarioPhase(name="flooded", ticks=22, batch_size=128),
        ),
        events=(
            ScenarioEvent(
                tick=10,
                action="etl_flood",
                tenant="warehouse",
                params={"count": 10},
            ),
            ScenarioEvent(
                tick=11,
                action="data_drift",
                tenant="warehouse",
                params={"changed_fraction": 0.30, "growth_factor": 1.10},
            ),
        ),
    )


def tenant_churn(seed: int = 0) -> ScenarioSpec:
    """Cluster churn: a cold tenant joins, a shard is added live, data
    drifts, and an original tenant leaves -- all in one run."""
    return ScenarioSpec(
        name="tenant_churn",
        seed=seed,
        tenants=(
            TenantSpec(name="alpha", n_queries=80, n_hints=N_HINTS, seed=0),
            TenantSpec(name="beta", n_queries=80, n_hints=N_HINTS, seed=1),
        ),
        phases=(
            ScenarioPhase(name="duo", ticks=10, batch_size=128),
            ScenarioPhase(name="churning", ticks=24, batch_size=128),
        ),
        events=(
            ScenarioEvent(
                tick=10,
                action="tenant_join",
                tenant_spec=TenantSpec(
                    name="gamma", n_queries=80, n_hints=N_HINTS, seed=2
                ),
            ),
            ScenarioEvent(tick=10, action="add_shard"),
            ScenarioEvent(
                tick=16,
                action="data_drift",
                tenant="alpha",
                params={"changed_fraction": 0.30, "growth_factor": 1.15},
            ),
            ScenarioEvent(tick=22, action="tenant_leave", tenant="beta"),
        ),
    )


def kill_shard_mid_drift(seed: int = 0) -> ScenarioSpec:
    """Chaos: a shard process dies in the middle of a gradual drift and
    rejoins from its journal several ticks later.

    The outage window exercises degraded default-plan serving plus the
    feedback outage queue; the restart exercises WAL replay, queue drain,
    and adaptation-backlog recovery -- all while the data keeps aging.
    """
    return ScenarioSpec(
        name="kill_shard_mid_drift",
        seed=seed,
        tenants=(
            TenantSpec(name="ledger", n_queries=80, n_hints=N_HINTS),
        ),
        phases=(
            ScenarioPhase(name="steady", ticks=8, batch_size=128),
            ScenarioPhase(
                name="aging",
                ticks=14,
                batch_size=128,
                drift_per_tick={"changed_fraction": 0.05, "growth_factor": 1.01},
            ),
            ScenarioPhase(name="settled", ticks=10, batch_size=128),
        ),
        events=(
            ScenarioEvent(
                tick=12, action="kill_shard", params={"shard": 0}
            ),
            ScenarioEvent(
                tick=17, action="restart_shard", params={"shard": 0}
            ),
        ),
    )


def restart_during_flash_crowd(seed: int = 0) -> ScenarioSpec:
    """Chaos: a shard lost before a flash crowd rejoins mid-burst.

    The 4x burst lands while the cluster is degraded, so the recovered
    shard must absorb both the queued outage feedback and peak traffic the
    moment it is back.
    """
    return ScenarioSpec(
        name="restart_during_flash_crowd",
        seed=seed,
        tenants=(
            TenantSpec(name="checkout", n_queries=120, n_hints=N_HINTS),
        ),
        phases=(
            ScenarioPhase(name="calm", ticks=10, batch_size=96),
            ScenarioPhase(
                name="burst",
                ticks=8,
                batch_size=96,
                burst_multiplier=4.0,
            ),
            ScenarioPhase(name="after", ticks=12, batch_size=96),
        ),
        events=(
            ScenarioEvent(
                tick=8, action="kill_shard", params={"shard": 0}
            ),
            ScenarioEvent(
                tick=10,
                action="data_drift",
                tenant="checkout",
                params={"changed_fraction": 0.25, "growth_factor": 1.12},
            ),
            ScenarioEvent(
                tick=13, action="restart_shard", params={"shard": 0}
            ),
        ),
    )


def standard_scenarios(seed: int = 0) -> Dict[str, ScenarioSpec]:
    """The whole named library, seed applied uniformly."""
    specs = [
        sudden_workload_shift(seed),
        gradual_data_drift(seed),
        diurnal_tenant_mix(seed),
        flash_crowd(seed),
        new_template_stream(seed),
        etl_flood(seed),
        tenant_churn(seed),
        kill_shard_mid_drift(seed),
        restart_during_flash_crowd(seed),
    ]
    return {spec.name: spec for spec in specs}


def drift_benchmark_scenarios() -> Dict[str, ScenarioSpec]:
    """The six single-service scenarios the acceptance benchmark runs, at
    seed 0."""
    library = standard_scenarios(0)
    return {
        name: library[name]
        for name in (
            "sudden_workload_shift",
            "gradual_data_drift",
            "diurnal_tenant_mix",
            "flash_crowd",
            "new_template_stream",
            "etl_flood",
        )
    }
