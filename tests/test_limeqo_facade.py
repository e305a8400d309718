"""Tests for the top-level LimeQO facade (offline + online paths)."""

import numpy as np
import pytest

from repro.config import ALSConfig, ExplorationConfig
from repro.core.explorer import MatrixOracle
from repro.core.limeqo import LimeQO
from repro.core.policies import LimeQOPolicy
from repro.errors import ExplorationError


@pytest.fixture
def truth():
    rng = np.random.default_rng(9)
    return rng.gamma(2.0, 2.0, (12, 3)) @ rng.gamma(2.0, 1.0, (8, 3)).T


@pytest.fixture
def system(truth):
    oracle = MatrixOracle(truth)
    return LimeQO(
        n_hints=truth.shape[1],
        oracle=oracle,
        policy=LimeQOPolicy(als_config=ALSConfig(rank=2, iterations=5)),
        config=ExplorationConfig(batch_size=3, seed=0),
    )


def test_requires_at_least_two_hints(truth):
    with pytest.raises(ExplorationError):
        LimeQO(n_hints=1, oracle=MatrixOracle(truth))


def test_matrix_unavailable_before_registration(system):
    with pytest.raises(ExplorationError):
        _ = system.matrix
    with pytest.raises(ExplorationError):
        system.explore(10.0)


def test_register_query_observes_default(system, truth):
    index = system.register_query("q0")
    assert index == 0
    assert system.num_queries == 1
    assert system.matrix.is_observed(0, 0)
    assert system.matrix.value(0, 0) == pytest.approx(truth[0, 0])
    # Re-registering the same name is a no-op returning the same row.
    assert system.register_query("q0") == 0
    assert system.num_queries == 1


def test_register_query_with_known_default_latency(system):
    index = system.register_query("q0", default_latency=42.0)
    assert system.matrix.value(index, 0) == 42.0


def test_unknown_query_lookup_raises(system):
    system.register_query("q0")
    with pytest.raises(ExplorationError):
        system.query_index("mystery")


def test_explore_and_recommend(system, truth):
    for i in range(truth.shape[0]):
        system.register_query(f"q{i}", default_latency=float(truth[i, 0]))
    default_total = truth[:, 0].sum()
    steps = system.explore(time_budget=2.0 * default_total)
    assert steps
    assert system.exploration_time > 0
    hints = system.plan_cache().snapshot().hints.tolist()
    assert len(hints) == truth.shape[0]
    served = sum(truth[i, h] for i, h in enumerate(hints))
    assert served <= default_total + 1e-9
    assert system.workload_latency() <= default_total + 1e-9


def test_online_lookup_never_regresses(system, truth):
    for i in range(truth.shape[0]):
        system.register_query(f"q{i}", default_latency=float(truth[i, 0]))
    system.explore(time_budget=1.0 * truth[:, 0].sum())
    cache = system.plan_cache()
    assert cache.verify_no_regression(truth)
    decision = system.lookup("q0")
    assert 0 <= decision.hint < truth.shape[1]


def test_lookup_by_name_matches_the_snapshot(system, truth):
    names = [f"q{i}" for i in range(truth.shape[0])]
    for name in names:
        system.register_query(name, default_latency=float(truth[int(name[1:]), 0]))
    system.explore(time_budget=1.0 * truth[:, 0].sum())
    snap = system.plan_cache().snapshot()
    for name in reversed(names):
        decision = system.lookup(name)
        row = system.query_index(name)
        assert decision.query == row
        assert decision.hint == snap.hints[row]
        assert decision.used_default == snap.used_default[row]
        assert decision.expected_latency == snap.expected_latency[row]


def test_new_query_after_exploration(system, truth):
    for i in range(6):
        system.register_query(f"q{i}", default_latency=float(truth[i, 0]))
    system.explore(time_budget=0.5 * truth[:6, 0].sum())
    new_index = system.register_query("q_new", default_latency=float(truth[7, 0]))
    assert new_index == 6
    # The new row starts with only the default observed.
    assert system.matrix.known_cells()[2][new_index] == 1
    system.explore(time_budget=0.5 * truth[:6, 0].sum())
    assert system.matrix.n_queries == 7


def test_summary_keys(system):
    system.register_query("q0", default_latency=1.0)
    summary = system.summary()
    for key in ("queries", "hints", "observed_fraction", "workload_latency",
                "exploration_time", "overhead_seconds"):
        assert key in summary
