"""Tests for the simulated execution engine."""

import pytest

from repro.db.cost_model import CostModel, LatencyModel, MachineProfile
from repro.db.datagen import make_catalog
from repro.db.executor import ExecutionResult, HintedExecutor, SimulatedExecutor
from repro.db.hints import default_hint_set, all_hint_sets
from repro.db.optimizer import PlanEnumerator
from repro.db.query import QueryGenerator
from repro.errors import ExecutionError


@pytest.fixture(scope="module")
def setup():
    catalog = make_catalog("toy", seed=0)
    enumerator = PlanEnumerator(catalog)
    cost_model = CostModel(catalog)
    latency_model = LatencyModel(cost_model, MachineProfile(noise_sigma=0.0), seed=0)
    executor = SimulatedExecutor(latency_model)
    hinted = HintedExecutor(enumerator, executor)
    query = QueryGenerator(catalog, seed=6).generate("q0")
    return enumerator, executor, hinted, query


def test_execute_returns_latency(setup):
    enumerator, executor, _, query = setup
    plan = enumerator.optimize(query, default_hint_set())
    result = executor.execute(query, plan)
    assert isinstance(result, ExecutionResult)
    assert result.latency > 0
    assert not result.timed_out
    assert result.charged_time == pytest.approx(result.latency)


def test_execute_measures_one_run_of_the_noisy_latency_model(setup):
    enumerator, executor, _, query = setup
    noisy = LatencyModel(executor.latency_model.cost_model, seed=0)
    assert noisy.profile.noise_sigma > 0
    plan = enumerator.optimize(query, default_hint_set())
    result = SimulatedExecutor(noisy).execute(query, plan)
    assert result.latency == noisy.latency_seconds(query, plan)


def test_timeout_censors_long_plans(setup):
    enumerator, executor, _, query = setup
    plan = enumerator.optimize(query, default_hint_set())
    full = executor.execute(query, plan)
    timeout = full.latency / 2
    censored = executor.execute(query, plan, timeout=timeout)
    assert censored.timed_out
    assert censored.charged_time == pytest.approx(timeout)
    assert censored.latency == pytest.approx(full.latency)


def test_generous_timeout_does_not_censor(setup):
    enumerator, executor, _, query = setup
    plan = enumerator.optimize(query, default_hint_set())
    full = executor.execute(query, plan)
    result = executor.execute(query, plan, timeout=full.latency * 10)
    assert not result.timed_out


def test_invalid_timeout_rejected(setup):
    enumerator, executor, _, query = setup
    plan = enumerator.optimize(query, default_hint_set())
    with pytest.raises(ExecutionError):
        executor.execute(query, plan, timeout=0.0)


def test_hinted_executor_varies_latency_across_hints(setup):
    _, _, hinted, query = setup
    latencies = {
        hint: hinted.execute_with_hint(query, hint).latency
        for hint in all_hint_sets()[:8]
    }
    assert len(set(round(v, 6) for v in latencies.values())) > 1


def test_hinted_executor_plan_matches_enumerator(setup):
    enumerator, _, hinted, query = setup
    hint = all_hint_sets()[5]
    assert hinted.plan(query, hint).signature() == enumerator.optimize(query, hint).signature()
