"""Tests for the declarative traffic/scenario engine (repro.scenarios)."""

import math

import numpy as np
import pytest

from builders import shrunk
from repro.cluster import ServingCluster
from repro.errors import ScenarioError
from repro.scenarios import (
    ACTIONS,
    ScenarioEvent,
    ScenarioPhase,
    ScenarioRunner,
    ScenarioSpec,
    TenantSpec,
    TenantWorld,
    drift_benchmark_scenarios,
    kill_shard_mid_drift,
    restart_during_flash_crowd,
    standard_scenarios,
    tenant_churn,
)
from repro.scenarios.runner import APPLY


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        seed=1,
        tenants=(TenantSpec(name="a", n_queries=30, n_hints=6),),
        phases=(
            ScenarioPhase(name="steady", ticks=4, batch_size=32),
            ScenarioPhase(name="after", ticks=4, batch_size=32),
        ),
        events=(
            ScenarioEvent(
                tick=4,
                action="data_drift",
                tenant="a",
                params={"changed_fraction": 0.3, "growth_factor": 1.2},
            ),
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# -- spec validation ---------------------------------------------------------------
def test_spec_validation_errors():
    with pytest.raises(ScenarioError):
        TenantSpec(name="bad/name")
    with pytest.raises(ScenarioError):
        TenantSpec(name="a", initial_fraction=0.0)
    with pytest.raises(ScenarioError):
        ScenarioPhase(name="p", ticks=0)
    with pytest.raises(ScenarioError):
        ScenarioPhase(name="p", ticks=1, diurnal_amplitude=1.5)
    with pytest.raises(ScenarioError):
        ScenarioEvent(tick=0, action="warp_reality", tenant="a")
    with pytest.raises(ScenarioError):
        ScenarioEvent(tick=0, action="tenant_join")  # needs a tenant_spec
    with pytest.raises(ScenarioError):
        ScenarioEvent(tick=0, action="data_drift")  # needs a tenant
    with pytest.raises(ScenarioError):
        tiny_spec(events=(ScenarioEvent(tick=99, action="data_drift", tenant="a"),))
    with pytest.raises(ScenarioError):
        tiny_spec(events=(ScenarioEvent(tick=1, action="data_drift", tenant="ghost"),))
    with pytest.raises(ScenarioError):
        tiny_spec(tenants=(TenantSpec(name="a"), TenantSpec(name="a")))
    with pytest.raises(ScenarioError):
        tiny_spec(seed=-1)
    with pytest.raises(ScenarioError):
        TenantSpec(name="a", seed=-3)


#: A value each parameter key accepts.
GOOD = {"changed_fraction": 0.3, "growth_factor": 1.1, "count": 3, "shard": 0}


def event_of(action):
    """Keyword arguments of a valid event of ``action``: its keys at
    :data:`GOOD` values, and the tenant or tenant_spec it names."""
    declared = ACTIONS[action]
    kwargs = dict(tick=0, action=action, params={key: GOOD[key] for key in declared.keys})
    if declared.names == "tenant":
        kwargs["tenant"] = "a"
    if declared.names == "tenant_spec":
        kwargs["tenant_spec"] = TenantSpec(name="b")
    return kwargs


def refusals():
    """``(id, event kwargs)`` for each bad input of each action, then the
    probes that built a spec at definition and failed or misbehaved mid-run
    before events were checked against their action."""
    for action, declared in ACTIONS.items():
        good = event_of(action)

        def but(**changes):
            return {**good, **changes}

        def params_with(key, value):
            return but(params={**good["params"], key: value})

        for key in declared.keys:
            yield f"{action}-missing-{key}", but(
                params={k: v for k, v in good["params"].items() if k != key}
            )
            for label, value in (
                ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                ("negative", -1.0), ("bool", True), ("text", "1"),
            ):
                yield f"{action}-{label}-{key}", params_with(key, value)
            if key in ("count", "shard"):
                yield f"{action}-fractional-{key}", params_with(key, 1.5)
            if key == "count":
                yield f"{action}-zero-count", params_with(key, 0)
        yield f"{action}-unknown-key", params_with("latency", 50.0)
        if declared.names == "tenant":
            yield f"{action}-no-tenant", but(tenant=None)
        else:
            yield f"{action}-stray-tenant", but(tenant="a")
        if declared.names == "tenant_spec":
            yield f"{action}-no-tenant-spec", but(tenant_spec=None)
        else:
            yield f"{action}-stray-tenant-spec", but(tenant_spec=TenantSpec(name="c"))

    drift = event_of("data_drift")
    for label, params in (
        ("nan-fraction", {"changed_fraction": math.nan, "growth_factor": 1.1}),
        ("fraction-5", {"changed_fraction": 5.0, "growth_factor": 1.1}),
        ("growth-minus-1", {"changed_fraction": 0.3, "growth_factor": -1}),
        ("misspelt-key", {"changed_fracton": 0.3}),
    ):
        yield f"probe-data_drift-{label}", {**drift, "params": params}
    yield "probe-new_templates-count-0", {**event_of("new_templates"), "params": {"count": 0}}
    yield "probe-etl_flood-count-minus-2", {**event_of("etl_flood"), "params": {"count": -2}}
    yield "probe-kill_shard-shard-True", {**event_of("kill_shard"), "params": {"shard": True}}


REFUSALS = dict(refusals())


@pytest.mark.parametrize("kwargs", REFUSALS.values(), ids=REFUSALS.keys())
def test_an_event_is_checked_against_its_action_at_definition(kwargs):
    with pytest.raises(ScenarioError):
        ScenarioEvent(**kwargs)


@pytest.mark.parametrize("action", ACTIONS)
def test_an_event_with_its_action_keys_is_accepted(action):
    assert ScenarioEvent(**event_of(action)).action == action


@pytest.mark.parametrize(
    "params",
    [kwargs["params"] for name, kwargs in REFUSALS.items() if name.startswith("data_drift-")
     and "tenant" not in name] + [{"changed_fracton": 0.3}, {}],
)
def test_a_phase_drift_is_checked_like_a_data_drift_event(params):
    with pytest.raises(ScenarioError):
        ScenarioPhase(name="aging", ticks=2, drift_per_tick=params)


def test_every_action_has_one_apply():
    assert list(APPLY) == list(ACTIONS)


def test_the_library_fires_every_action():
    fired = {e.action for spec in standard_scenarios().values() for e in spec.events}
    assert fired == set(ACTIONS)


def test_spec_timeline_helpers():
    spec = tiny_spec()
    assert spec.total_ticks == 8
    phase, start = spec.phase_at(5)
    assert phase.name == "after" and start == 4
    assert [e.action for e in spec.events_at(4)] == ["data_drift"]
    assert spec.first_disturbance_tick() == 4
    calm = tiny_spec(events=())
    assert calm.first_disturbance_tick() is None
    drifting = tiny_spec(
        events=(),
        phases=(
            ScenarioPhase(name="p1", ticks=3),
            ScenarioPhase(
                name="p2",
                ticks=3,
                drift_per_tick={"changed_fraction": 0.02, "growth_factor": 1.01},
            ),
        ),
    )
    assert drifting.first_disturbance_tick() == 3


def test_runner_rejects_bad_targets():
    for target in ("mainframe", "service", None):
        with pytest.raises(ScenarioError):
            ScenarioRunner(tiny_spec(), target=target)
    ScenarioRunner(tiny_spec(), target="cluster")
    ScenarioRunner(tiny_spec(), target=lambda worlds: None)


# -- chaos events (kill_shard / restart_shard) -------------------------------------
def test_chaos_event_validation():
    with pytest.raises(ScenarioError):
        ScenarioEvent(tick=0, action="kill_shard", params={"shard": -1})
    with pytest.raises(ScenarioError):
        ScenarioEvent(tick=0, action="kill_shard", params={"shard": 1.5})
    # No tenant needed, but the shard is: it has no default.
    with pytest.raises(ScenarioError, match="missing"):
        ScenarioEvent(tick=0, action="kill_shard")
    # Restart before any kill of that shard is rejected at spec time.
    with pytest.raises(ScenarioError):
        tiny_spec(
            events=(
                ScenarioEvent(tick=2, action="restart_shard", params={"shard": 0}),
            )
        )
    # Double-kill without an intervening restart is rejected.
    with pytest.raises(ScenarioError):
        tiny_spec(
            events=(
                ScenarioEvent(tick=1, action="kill_shard", params={"shard": 0}),
                ScenarioEvent(tick=2, action="kill_shard", params={"shard": 0}),
            )
        )
    # A rebalance during an outage is rejected.
    with pytest.raises(ScenarioError):
        tiny_spec(
            events=(
                ScenarioEvent(tick=1, action="kill_shard", params={"shard": 0}),
                ScenarioEvent(tick=2, action="add_shard"),
            )
        )
    # A well-ordered kill/restart pair passes.
    tiny_spec(
        events=(
            ScenarioEvent(tick=1, action="kill_shard", params={"shard": 0}),
            ScenarioEvent(tick=3, action="restart_shard", params={"shard": 0}),
        )
    )


@pytest.mark.parametrize("tick", [1.5, 2.5, 2.0, True, math.nan, "1"], ids=repr)
def test_a_tick_or_a_tick_count_is_an_integer_at_definition(tick):
    """An event at tick 1.5 never fired, and a phase of 2.5 ticks raised a
    ``TypeError`` mid-run."""
    with pytest.raises(ScenarioError, match="integer"):
        ScenarioEvent(tick=tick, action="add_shard")
    with pytest.raises(ScenarioError, match="integer"):
        ScenarioPhase(name="p", ticks=tick)
    assert ScenarioEvent(tick=np.int64(2), action="add_shard").tick == 2


def test_runner_refuses_a_shard_the_cluster_will_not_have():
    """With one shard, killing shard 3 used to fail mid-run with
    ``ClusterError: unknown shard 3``."""
    kill = lambda tick, shard: ScenarioEvent(tick=tick, action="kill_shard", params={"shard": shard})
    restart = lambda tick, shard: ScenarioEvent(
        tick=tick, action="restart_shard", params={"shard": shard}
    )
    with pytest.raises(ScenarioError, match="shard 3"):
        ScenarioRunner(tiny_spec(events=(kill(1, 3), restart(2, 3))), n_shards=1)
    late_add = (kill(1, 1), restart(2, 1), ScenarioEvent(tick=3, action="add_shard"))
    with pytest.raises(ScenarioError, match="shard 1"):
        ScenarioRunner(tiny_spec(events=late_add))
    # An add_shard before it makes shard 1; a factory target counts its own.
    ScenarioRunner(tiny_spec(events=(ScenarioEvent(tick=0, action="add_shard"), kill(1, 1))))
    ScenarioRunner(tiny_spec(events=(kill(1, 3),)), target=lambda worlds: None)


def test_chaos_scenarios_run_and_replay_deterministically():
    spec = shrunk(kill_shard_mid_drift(seed=0), n_queries=24, batch_size=32)
    runner = ScenarioRunner(spec, target="cluster", adaptive=True, n_shards=2)
    trace = runner.run()
    assert len(trace.ticks) == spec.total_ticks
    assert (trace.arrivals > 0).all()  # every tick answered, outage included
    replay = ScenarioRunner(
        spec, target="cluster", adaptive=True, n_shards=2
    ).run()
    assert trace.decisions_blob() == replay.decisions_blob()


def test_decisions_never_read_the_als_completion(monkeypatch):
    """No serving decision, drift signal or re-exploration reads the shards'
    ALS completion: a drifting run with a kill and a restart decides
    byte-identically whether the refresh scheduler ticks every tick or never.
    A change that gives the completion a reader must revisit this on purpose.
    """
    spec = shrunk(kill_shard_mid_drift(seed=0), n_queries=24, batch_size=32)
    real_tick, refreshed = ServingCluster.tick, []

    def counted_tick(cluster):
        ids = real_tick(cluster)
        refreshed.extend(ids)
        return ids

    def run(tick):
        monkeypatch.setattr(ServingCluster, "tick", tick)
        return ScenarioRunner(spec, target="cluster", adaptive=True, n_shards=2).run()

    ticking = run(counted_tick)
    frozen = run(lambda cluster: [])
    assert set(refreshed) == {0, 1}  # both shards' completions were kept fresh
    assert ticking.decisions_blob() == frozen.decisions_blob()
    np.testing.assert_array_equal(ticking.served, frozen.served)


def test_restart_during_flash_crowd_spec_shape():
    spec = restart_during_flash_crowd(seed=3)
    actions = [e.action for e in sorted(spec.events, key=lambda e: e.tick)]
    assert actions == ["kill_shard", "data_drift", "restart_shard"]


# -- world ------------------------------------------------------------------------
def test_tenant_world_mutations():
    world = TenantWorld(
        TenantSpec(name="a", n_queries=20, n_hints=6, initial_fraction=0.7), seed=0
    )
    assert world.visible == 14 and world.n_rows == 20
    before = world.latencies.copy()
    rng = np.random.default_rng(0)
    changed = world.apply_drift(0.3, 1.1, rng)
    assert changed == 6
    assert not np.allclose(world.latencies, before)

    world.activate_rest()  # rows may only be appended once fully visible
    etl_names = world.add_etl_rows(3, latency=100.0, jitter=0.01, rng=rng)
    assert world.n_rows == 23 and world.visible == 23
    etl_rows = world.latencies[[world.row_of(n) for n in etl_names]]
    assert np.all(etl_rows.argmin(axis=1) == 0)  # incompressible

    new_names = world.add_template_rows(2, rng)
    assert world.n_rows == 25
    assert all(world.row_of(n) >= 23 for n in new_names)

    # activate_rest is a no-op once everything is visible.
    assert world.activate_rest() == []
    with pytest.raises(ScenarioError):
        world.row_of("nope")


def test_spec_rejects_row_adds_behind_a_held_back_split():
    """Appending rows while a 70/30 split is still held back would expose
    never-registered rows to traffic; the spec rejects it at definition."""
    partial = TenantSpec(name="a", n_queries=30, n_hints=6, initial_fraction=0.7)
    phases = (ScenarioPhase(name="p", ticks=8, batch_size=32),)
    with pytest.raises(ScenarioError):
        ScenarioSpec(
            name="bad",
            seed=0,
            tenants=(partial,),
            phases=phases,
            events=(
                ScenarioEvent(
                    tick=2, action="etl_flood", tenant="a", params={"count": 2}
                ),
            ),
        )
    # Ordered after activate_rest the same events are fine — and runnable.
    spec = ScenarioSpec(
        name="good",
        seed=0,
        tenants=(partial,),
        phases=phases,
        events=(
            ScenarioEvent(tick=2, action="activate_rest", tenant="a"),
            ScenarioEvent(
                tick=4, action="new_templates", tenant="a", params={"count": 2}
            ),
        ),
    )
    trace = ScenarioRunner(spec, adaptive=False).run()
    assert len(trace.ticks) == 8


def test_world_refuses_row_adds_behind_held_back_split():
    world = TenantWorld(
        TenantSpec(name="a", n_queries=10, n_hints=4, initial_fraction=0.5), seed=0
    )
    rng = np.random.default_rng(0)
    with pytest.raises(ScenarioError):
        world.add_etl_rows(2, latency=10.0, jitter=0.01, rng=rng)
    world.activate_rest()
    assert len(world.add_etl_rows(2, latency=10.0, jitter=0.01, rng=rng)) == 2


def test_world_activation_order_is_registration_order():
    world = TenantWorld(
        TenantSpec(name="a", n_queries=10, n_hints=4, initial_fraction=0.5), seed=0
    )
    newly = world.activate_rest()
    assert newly == [f"q{i}" for i in range(5, 10)]
    assert world.visible == 10


# -- runner determinism --------------------------------------------------------------
def test_replay_determinism_static_and_adaptive():
    spec = tiny_spec()
    for adaptive in (False, True):
        a = ScenarioRunner(spec, adaptive=adaptive).run()
        b = ScenarioRunner(spec, adaptive=adaptive).run()
        assert a.decisions_blob() == b.decisions_blob()
        assert np.array_equal(a.served, b.served)
    # A different seed produces a different trace.
    other = ScenarioRunner(tiny_spec(seed=2), adaptive=True).run()
    baseline = ScenarioRunner(spec, adaptive=True).run()
    assert other.decisions_blob() != baseline.decisions_blob()


def test_static_and_adaptive_share_traffic_and_ground_truth():
    spec = tiny_spec()
    static = ScenarioRunner(spec, adaptive=False).run()
    adaptive = ScenarioRunner(spec, adaptive=True).run()
    # Same arrivals, same default/optimal reference latencies -- only the
    # served decisions (and thus served latency) may differ.
    assert np.array_equal(static.arrivals, adaptive.arrivals)
    assert np.allclose(static.default, adaptive.default)
    assert np.allclose(static.optimal, adaptive.optimal)


def test_trace_series_and_summary():
    trace = ScenarioRunner(tiny_spec(), adaptive=False).run()
    assert len(trace.ticks) == 8
    assert trace.served.shape == (8,)
    improvement = trace.improvement()
    assert np.all(improvement <= 1.0)
    summary = trace.summary()
    assert summary["arrivals"] == trace.arrivals.sum()
    assert summary["served_latency"] == pytest.approx(trace.served.sum())
    assert trace.adaptive_report is None


def test_adaptive_run_reports_and_improves():
    spec = tiny_spec(
        phases=(
            ScenarioPhase(name="steady", ticks=4, batch_size=64),
            ScenarioPhase(name="after", ticks=10, batch_size=64),
        ),
        events=(
            ScenarioEvent(
                tick=4,
                action="data_drift",
                tenant="a",
                params={"changed_fraction": 0.4, "growth_factor": 1.2},
            ),
        ),
    )
    static = ScenarioRunner(spec, adaptive=False).run()
    adaptive = ScenarioRunner(spec, adaptive=True).run()
    assert adaptive.adaptive_report is not None
    assert adaptive.adaptive_report["responses"] >= 1
    assert adaptive.served[-3:].sum() < static.served[-3:].sum()


# -- events through the runner ---------------------------------------------------------
def test_workload_shift_and_new_templates_grow_serving():
    spec = ScenarioSpec(
        name="shift",
        seed=3,
        tenants=(
            TenantSpec(name="a", n_queries=30, n_hints=6, initial_fraction=0.6),
        ),
        phases=(ScenarioPhase(name="p", ticks=6, batch_size=32),),
        events=(
            ScenarioEvent(tick=2, action="activate_rest", tenant="a"),
            ScenarioEvent(
                tick=4, action="new_templates", tenant="a", params={"count": 5}
            ),
            ScenarioEvent(
                tick=4, action="etl_flood", tenant="a",
                params={"count": 3},
            ),
        ),
    )
    runner = ScenarioRunner(spec, adaptive=False)
    trace = runner.run()
    assert len(trace.ticks) == 6
    # All 30 + 5 + 3 rows ended up registered and servable.
    decisions = np.frombuffer(trace.decisions_blob(), dtype=np.int64)
    assert decisions.max() <= 38


def test_tenant_churn_runs_on_cluster():
    spec = shrunk(tenant_churn(seed=0), n_queries=30, batch_size=48)
    adaptive = ScenarioRunner(spec, target="cluster", adaptive=True, n_shards=2).run()
    replay = ScenarioRunner(spec, target="cluster", adaptive=True, n_shards=2).run()
    assert adaptive.decisions_blob() == replay.decisions_blob()
    assert adaptive.adaptive_report is not None
    # gamma joined cold and beta left: the run must still have served every tick.
    assert np.all(adaptive.arrivals > 0)


# -- the library -----------------------------------------------------------------------
def test_scenario_library_shapes():
    library = standard_scenarios(seed=0)
    assert len(library) >= 7
    for name, spec in library.items():
        assert spec.name == name
        assert spec.total_ticks >= 8
    bench = drift_benchmark_scenarios()
    assert len(bench) >= 6
    for spec in bench.values():
        assert spec.first_disturbance_tick() is not None
    # Seeds propagate into the spec, so the library is replayable by value.
    assert standard_scenarios(seed=5)["etl_flood"].seed == 5
