"""Tests for workload specs, synthetic matrices, shifts, and persistence."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.matrices import generate_workload
from repro.workloads.shift import (
    DataDriftModel,
    add_etl_query,
    apply_data_shift,
    changed_optimal_fraction,
    split_for_workload_shift,
)
from repro.workloads.spec import (
    CEB_SPEC,
    DSB_SPEC,
    JOB_SPEC,
    STACK_SPEC,
    WorkloadSpec,
    get_spec,
)


# -- specs -------------------------------------------------------------------
def test_paper_specs_match_table1():
    assert JOB_SPEC.n_queries == 113
    assert CEB_SPEC.n_queries == 3133
    assert STACK_SPEC.n_queries == 6191
    assert DSB_SPEC.n_queries == 1040
    assert JOB_SPEC.default_total == pytest.approx(181.0)
    assert JOB_SPEC.optimal_total == pytest.approx(68.0)
    assert CEB_SPEC.headroom == pytest.approx(2.94 / 1.02, rel=1e-3)
    assert all(
        spec.n_hints == 49 for spec in (JOB_SPEC, CEB_SPEC, STACK_SPEC, DSB_SPEC)
    )


def test_get_spec_lookup_and_errors():
    assert get_spec("job") is JOB_SPEC
    with pytest.raises(WorkloadError):
        get_spec("tpch")


def test_spec_validation():
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="bad", n_queries=0, default_total=10, optimal_total=5)
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="bad", n_queries=5, default_total=5, optimal_total=10)


def test_spec_scaling_preserves_headroom():
    scaled = CEB_SPEC.scaled(0.1)
    assert scaled.n_queries == pytest.approx(313, abs=1)
    assert scaled.headroom == pytest.approx(CEB_SPEC.headroom, rel=1e-6)
    with pytest.raises(WorkloadError):
        CEB_SPEC.scaled(0.0)


# -- synthetic workloads -------------------------------------------------------
def test_generated_workload_is_calibrated(tiny_spec, tiny_workload):
    assert tiny_workload.true_latencies.shape == (tiny_spec.n_queries, tiny_spec.n_hints)
    assert tiny_workload.default_total == pytest.approx(tiny_spec.default_total, rel=0.01)
    assert tiny_workload.optimal_total == pytest.approx(tiny_spec.optimal_total, rel=0.05)
    assert (tiny_workload.true_latencies > 0).all()
    assert np.isfinite(tiny_workload.true_latencies).all()


def test_generated_workload_is_reproducible(tiny_spec):
    a = generate_workload(tiny_spec, seed=5)
    b = generate_workload(tiny_spec, seed=5)
    c = generate_workload(tiny_spec, seed=6)
    assert np.allclose(a.true_latencies, b.true_latencies)
    assert not np.allclose(a.true_latencies, c.true_latencies)


def test_workload_matrix_is_approximately_low_rank(job_small_workload):
    singular = np.linalg.svd(job_small_workload.true_latencies, compute_uv=False)
    energy = np.cumsum(singular ** 2) / np.sum(singular ** 2)
    # The top ~10 singular values capture nearly all of the energy (Figure 14).
    assert energy[9] > 0.95


def test_some_queries_are_incompressible(tiny_workload):
    optimal = tiny_workload.optimal_hints()
    assert (optimal == 0).any()
    assert (optimal != 0).any()


def test_optimizer_costs_correlate_with_latency(tiny_workload):
    corr = np.corrcoef(
        np.log(tiny_workload.optimizer_costs.ravel()),
        np.log(tiny_workload.true_latencies.ravel()),
    )[0, 1]
    assert corr > 0.5


def test_workload_subset(tiny_workload):
    subset = tiny_workload.subset([0, 2, 4])
    assert subset.n_queries == 3
    assert np.allclose(subset.true_latencies, tiny_workload.true_latencies[[0, 2, 4]])
    assert subset.default_total == pytest.approx(
        tiny_workload.true_latencies[[0, 2, 4], 0].sum()
    )


# -- shifts ---------------------------------------------------------------------
def test_add_etl_query_appends_incompressible_row(tiny_workload):
    etl_latency = 0.2 * tiny_workload.default_total
    shifted = add_etl_query(tiny_workload, latency=etl_latency, seed=0)
    assert shifted.n_queries == tiny_workload.n_queries + 1
    row = shifted.true_latencies[-1]
    assert row[0] == pytest.approx(row.min())
    assert row.max() / row.min() < 1.1
    assert shifted.default_total > tiny_workload.default_total
    with pytest.raises(WorkloadError):
        add_etl_query(tiny_workload, latency=-1.0)


def test_split_for_workload_shift(tiny_workload):
    initial, late = split_for_workload_shift(tiny_workload, 0.7, seed=0)
    assert len(initial) + len(late) == tiny_workload.n_queries
    assert len(set(initial) & set(late)) == 0
    assert len(initial) == round(0.7 * tiny_workload.n_queries)
    with pytest.raises(WorkloadError):
        split_for_workload_shift(tiny_workload, 1.5)


def test_data_drift_model_is_monotone():
    model = DataDriftModel()
    fractions = [model.drift_fraction(i) for i in model.intervals()]
    assert fractions == sorted(fractions)
    assert model.drift_fraction("2 years") == pytest.approx(0.21)
    with pytest.raises(WorkloadError):
        model.drift_fraction("3 years")


def test_apply_data_shift_changes_requested_fraction(tiny_workload):
    shifted = apply_data_shift(tiny_workload, changed_fraction=0.3, growth_factor=1.2, seed=0)
    assert shifted.n_queries == tiny_workload.n_queries
    changed = changed_optimal_fraction(tiny_workload, shifted)
    assert changed == pytest.approx(0.3, abs=0.1)
    # Latencies grow roughly by the growth factor on unchanged cells.
    assert shifted.default_total >= tiny_workload.default_total
    with pytest.raises(WorkloadError):
        apply_data_shift(tiny_workload, changed_fraction=2.0)


def test_changed_optimal_fraction_requires_same_size(tiny_workload):
    subset = tiny_workload.subset(range(5))
    with pytest.raises(WorkloadError):
        changed_optimal_fraction(tiny_workload, subset)
