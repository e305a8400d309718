"""Tests for workload specs, synthetic matrices, shifts, and persistence."""

import itertools

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.matrices import INCOMPRESSIBLE_FRACTION, generate_workload
from repro.workloads.shift import (
    DRIFT_BY_AGE,
    add_etl_query,
    apply_data_shift,
    changed_optimal_fraction,
    split_for_workload_shift,
)
from repro.workloads.spec import (
    CEB_SPEC,
    DSB_SPEC,
    JOB_SPEC,
    NUM_HINT_SETS,
    STACK_2017_SPEC,
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
    fractions = list(DRIFT_BY_AGE.values())
    assert fractions == sorted(fractions)
    assert DRIFT_BY_AGE["2 years"] == pytest.approx(0.21)


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


# -- every paper workload at full scale -----------------------------------------
PAPER_SPECS = [JOB_SPEC, CEB_SPEC, STACK_SPEC, STACK_2017_SPEC, DSB_SPEC]


@pytest.fixture(scope="module")
def paper_workloads():
    """Each Table 1 workload at its full size, seed 0 (the largest is 6191 x 49)."""
    return {spec.name: generate_workload(spec, seed=0) for spec in PAPER_SPECS}


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=lambda spec: spec.name)
def test_get_spec_finds_every_paper_workload(spec):
    assert get_spec(spec.name) is spec


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=lambda spec: spec.name)
def test_paper_workload_is_calibrated_at_full_scale(spec, paper_workloads):
    workload = paper_workloads[spec.name]
    assert workload.true_latencies.shape == (spec.n_queries, NUM_HINT_SETS)
    assert np.isfinite(workload.true_latencies).all()
    assert (workload.true_latencies > 0).all()
    assert workload.default_total == pytest.approx(spec.default_total, rel=1e-9)
    assert workload.optimal_total == pytest.approx(spec.optimal_total, rel=1e-6)
    assert workload.headroom == pytest.approx(spec.headroom, rel=1e-6)


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=lambda spec: spec.name)
def test_paper_workload_leaves_headroom_in_all_but_the_incompressible_rows(
    spec, paper_workloads
):
    # The incompressible (ETL-like) share is the one knob that keeps the
    # default hint optimal; every other row has a better hint to find.
    workload = paper_workloads[spec.name]
    improvable = float(np.mean(workload.optimal_hints() != 0))
    assert improvable == pytest.approx(1.0 - INCOMPRESSIBLE_FRACTION, abs=0.01)


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=lambda spec: spec.name)
def test_paper_workload_optimal_hints_are_spread_over_many_columns(spec, paper_workloads):
    # Query families favour different hints, so no one hint is a safe
    # global choice -- the inter-query structure matrix completion exploits.
    counts = np.bincount(paper_workloads[spec.name].optimal_hints(), minlength=NUM_HINT_SETS)
    assert (counts > 0).sum() >= 10
    assert counts.max() < 0.35 * spec.n_queries


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=lambda spec: spec.name)
def test_paper_workload_is_low_rank_at_its_latent_rank(spec, paper_workloads):
    singular = np.linalg.svd(paper_workloads[spec.name].true_latencies, compute_uv=False)
    energy = np.cumsum(singular ** 2) / np.sum(singular ** 2)
    assert energy[spec.rank - 1] > 0.99


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=lambda spec: spec.name)
def test_paper_workload_is_reproducible_from_its_seed(spec, paper_workloads):
    again = generate_workload(spec, seed=0)
    workload = paper_workloads[spec.name]
    for name in ("true_latencies", "query_factors", "hint_factors", "optimizer_costs"):
        assert np.array_equal(getattr(again, name), getattr(workload, name)), name
    other = generate_workload(spec, seed=1)
    assert not np.array_equal(other.true_latencies, workload.true_latencies)


def test_num_hint_sets_counts_bao_switch_combinations():
    # Six switches (three joins, three scans); a valid hint set keeps at
    # least one join and at least one scan enabled.
    valid = [
        switches
        for switches in itertools.product((False, True), repeat=6)
        if any(switches[:3]) and any(switches[3:])
    ]
    assert len(valid) == NUM_HINT_SETS == 49
    assert WorkloadSpec(name="x", n_queries=2, default_total=2.0, optimal_total=1.0).n_hints == 49


@pytest.mark.parametrize(
    "fields",
    [
        dict(n_queries=0),
        dict(n_queries=-3),
        dict(n_hints=1),
        dict(default_total=0.0),
        dict(optimal_total=-1.0),
        dict(default_total=5.0, optimal_total=6.0),
    ],
    ids=["no-queries", "negative-queries", "one-hint", "zero-default",
         "negative-optimal", "optimal-above-default"],
)
def test_spec_refuses_an_impossible_shape_or_total(fields):
    valid = dict(name="bad", n_queries=10, default_total=10.0, optimal_total=5.0)
    with pytest.raises(WorkloadError, match="bad"):
        WorkloadSpec(**{**valid, **fields})


@pytest.mark.parametrize("fraction", [0.0, -0.25, 1.0001, 2.0])
def test_scaled_refuses_a_fraction_outside_the_unit_interval(fraction):
    with pytest.raises(WorkloadError):
        JOB_SPEC.scaled(fraction)


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=lambda spec: spec.name)
def test_scaled_keeps_hints_rank_and_headroom(spec):
    whole = spec.scaled(1.0)
    assert (whole.n_queries, whole.default_total) == (spec.n_queries, spec.default_total)
    small = spec.scaled(0.01)
    assert small.n_queries == max(2, round(spec.n_queries * 0.01))
    assert (small.n_hints, small.rank) == (spec.n_hints, spec.rank)
    assert small.headroom == pytest.approx(spec.headroom, rel=1e-12)


def test_subset_and_data_shift_keep_the_hint_space_and_rank():
    narrow = WorkloadSpec(
        name="narrow", n_queries=30, default_total=90.0, optimal_total=40.0,
        n_hints=12, rank=3,
    )
    workload = generate_workload(narrow, seed=2)
    for derived in (workload.subset([1, 4, 9]), apply_data_shift(workload, seed=1)):
        assert (derived.spec.n_hints, derived.spec.rank) == (12, 3)
        assert derived.spec.default_total == pytest.approx(derived.default_total)
        assert derived.spec.optimal_total == pytest.approx(derived.optimal_total)


@pytest.mark.parametrize("age", list(DRIFT_BY_AGE))
def test_data_shift_moves_the_optimum_of_each_ages_calibrated_share(age, paper_workloads):
    # Figure 10's setting: the 2017 Stack snapshot aged by each interval.
    # Every sampled row's argmin provably moves and no other row's does.
    before = paper_workloads["stack-2017"]
    fraction = DRIFT_BY_AGE[age]
    after = apply_data_shift(before, changed_fraction=fraction, seed=0)
    expected = round(fraction * before.n_queries) / before.n_queries
    assert changed_optimal_fraction(before, after) == pytest.approx(expected, abs=1e-12)
