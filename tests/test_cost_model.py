"""Tests for the cost model and latency model."""

import numpy as np
import pytest

from repro.db.cardinality import stable_seed
from repro.db.catalog import Column, Table
from repro.db.cost_model import CostConstants, CostModel, LatencyModel, MachineProfile
from repro.db.datagen import make_catalog
from repro.db.hints import default_hint_set
from repro.db.operators import PlanNode, ScanOperator
from repro.db.optimizer import PlanEnumerator
from repro.db.query import QueryGenerator
from repro.errors import ExecutionError


@pytest.fixture(scope="module")
def catalog():
    return make_catalog("toy", seed=0)


@pytest.fixture(scope="module")
def cost_model(catalog):
    return CostModel(catalog)


def big_table():
    table = Table(name="big", row_count=1_000_000)
    table.add_column(Column(name="id", distinct_values=1_000_000, indexed=True))
    return table


def test_seq_scan_cost_grows_with_table_size(cost_model):
    small = Table(name="small", row_count=100)
    small.add_column(Column(name="id", distinct_values=100))
    cheap = cost_model.scan_cost("seq_scan", small, 100, 1.0)
    expensive = cost_model.scan_cost("seq_scan", big_table(), 1_000_000, 1.0)
    assert expensive > cheap


def test_index_scan_beats_seq_scan_for_selective_predicates(cost_model):
    table = big_table()
    selective_rows = 100
    index_cost = cost_model.scan_cost("index_scan", table, selective_rows, 1e-4)
    seq_cost = cost_model.scan_cost("seq_scan", table, selective_rows, 1e-4)
    assert index_cost < seq_cost


def test_seq_scan_beats_index_scan_for_full_scans(cost_model):
    table = big_table()
    index_cost = cost_model.scan_cost("index_scan", table, table.row_count, 1.0)
    seq_cost = cost_model.scan_cost("seq_scan", table, table.row_count, 1.0)
    assert seq_cost < index_cost


def test_unknown_scan_operator_raises(cost_model):
    with pytest.raises(ExecutionError):
        cost_model.scan_cost("bitmap_scan", big_table(), 10, 0.1)


def test_nested_loop_explodes_with_large_inputs(cost_model):
    small = cost_model.join_cost("nested_loop", 100, 100, 100)
    large = cost_model.join_cost("nested_loop", 1e6, 1e6, 1e6)
    hash_large = cost_model.join_cost("hash_join", 1e6, 1e6, 1e6)
    assert large > small
    assert large > hash_large * 10


def test_nested_loop_wins_for_tiny_outer(cost_model):
    nl = cost_model.join_cost("nested_loop", 1, 1000, 10)
    hj = cost_model.join_cost("hash_join", 1, 1000, 10)
    assert nl < hj


def test_unknown_join_operator_raises(cost_model):
    with pytest.raises(ExecutionError):
        cost_model.join_cost("sort_merge_bushy", 10, 10, 10)


def test_machine_profile_validation():
    with pytest.raises(ExecutionError):
        MachineProfile(seconds_per_cost_unit=0.0)
    with pytest.raises(ExecutionError):
        MachineProfile(noise_sigma=-0.1)


def test_latency_model_is_deterministic(catalog, cost_model):
    enumerator = PlanEnumerator(catalog)
    query = QueryGenerator(catalog, seed=4).generate("q0")
    plan = enumerator.optimize(query, default_hint_set())
    model = LatencyModel(cost_model, seed=0)
    assert model.latency_seconds(query, plan) == model.latency_seconds(query, plan)
    reseeded = LatencyModel(cost_model, seed=1)
    assert reseeded.latency_seconds(query, plan) != pytest.approx(model.latency_seconds(query, plan))


def test_latency_noise_keeps_the_run_zero_key(catalog, cost_model):
    # The noise is keyed by run index "0", as when latency_seconds took a
    # run index: a new key would redraw every DB-built workload's matrix.
    enumerator = PlanEnumerator(catalog)
    query = QueryGenerator(catalog, seed=4).generate("q0")
    plan = enumerator.optimize(query, default_hint_set())
    model = LatencyModel(cost_model, seed=0)
    quiet = LatencyModel(cost_model, MachineProfile(noise_sigma=0.0), seed=0)
    key = stable_seed("0", query.name, repr(plan.signature()), "0")
    noise = np.exp(np.random.default_rng(key).normal(0.0, model.profile.noise_sigma))
    assert model.latency_seconds(query, plan) == pytest.approx(
        quiet.latency_seconds(query, plan) * noise, rel=1e-12
    )


def test_latency_requires_annotated_plan(catalog, cost_model):
    model = LatencyModel(cost_model, seed=0)
    query = QueryGenerator(catalog, seed=4).generate("q0")
    alias = query.aliases[0]
    bare = PlanNode(ScanOperator.SEQ_SCAN.value, alias=alias, table=query.table_for(alias))
    with pytest.raises(ExecutionError):
        model.latency_seconds(query, bare)


def test_etl_query_dominated_by_write_cost(catalog, cost_model):
    enumerator = PlanEnumerator(catalog)
    generator = QueryGenerator(catalog, seed=4)
    query = generator.generate("q0")
    etl = type(query)(
        name="etl",
        relations=query.relations,
        joins=query.joins,
        predicates=query.predicates,
        is_etl=True,
    )
    plan = enumerator.optimize(query, default_hint_set())
    model = LatencyModel(cost_model, MachineProfile(noise_sigma=0.0), seed=0)
    assert model.latency_seconds(etl, plan) > model.latency_seconds(query, plan) + 50


def test_cost_constants_defaults_match_postgres():
    constants = CostConstants()
    assert constants.seq_page_cost == 1.0
    assert constants.random_page_cost == 4.0
    assert constants.cpu_tuple_cost == 0.01
