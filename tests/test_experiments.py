"""Tests for the experiment harness (runner, reporting, small figure smokes)."""

import hashlib

import numpy as np
import pytest

from repro.config import TCNNConfig
from repro.core.explorer import OfflineExplorer
from repro.errors import CompletionError, ExperimentError
from repro.experiments import figures
from repro.experiments.reporting import (
    format_series_table,
    format_table,
)
from repro.experiments.runner import (
    POLICY_NAMES,
    default_checkpoints,
    make_policy,
    run_policy_on_workload,
)
from repro.workloads import DRIFT_BY_AGE

FAST_TCNN = TCNNConfig(
    embedding_rank=3, channels=(8,), hidden_units=(8,), dropout=0.0,
    batch_size=32, max_epochs=2, convergence_window=2,
)


def test_make_policy_builds_all_named_policies(tiny_workload):
    for name in POLICY_NAMES + ("tcnn",):
        policy = make_policy(name, tiny_workload, tcnn_config=FAST_TCNN)
        assert policy is not None
    with pytest.raises(ExperimentError):
        make_policy("alphago", tiny_workload)


def test_default_checkpoints_are_multiples_of_default_time(tiny_workload):
    checkpoints = default_checkpoints(tiny_workload)
    ratios = checkpoints / tiny_workload.default_total
    assert np.allclose(ratios, [0.25, 0.5, 1.0, 2.0, 4.0])


def test_run_policy_on_workload_returns_checkpointed_latencies(tiny_workload):
    run = run_policy_on_workload(
        tiny_workload, "random", batch_size=5,
        checkpoints=[0.5 * tiny_workload.default_total],
        time_budget=0.5 * tiny_workload.default_total,
    )
    assert run.policy == "random"
    assert run.latencies.shape == (1,)
    assert run.latencies[0] <= tiny_workload.default_total
    assert run.trace.times[0] == 0.0
    assert run.checkpoints.shape == run.overheads.shape == (1,)


# -- reporting -----------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["name", "value"], [["als", 1.5], ["nuc", 2.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "als" in lines[2]


def test_format_series_table():
    text = format_series_table({"limeqo": [1.0, 2.0]}, [0.5, 1.0], x_label="t")
    assert "limeqo" in text
    assert "t" in text


# -- figure smoke tests (tiny scales) ----------------------------------------------
def test_table1_summary_structure():
    table = figures.table1_workload_summary(scale=0.01)
    assert set(table) == {"job", "ceb", "stack", "dsb"}
    for row in table.values():
        assert row["default_total_s"] > row["optimal_total_s"]
        assert row["headroom"] > 1.0


def test_figure5_smoke_linear_policies_only():
    result = figures.figure5_performance(
        scales={"ceb": 0.015}, policies=("random", "limeqo"), tcnn_config=FAST_TCNN,
        max_steps=None,
    )
    ceb = result["ceb"]
    assert set(ceb["policies"]) == {"random", "limeqo"}
    for series in ceb["policies"].values():
        assert len(series["latencies"]) == 5
        assert series["latencies"][-1] <= ceb["default_total"] + 1e-9


def test_figure14_singular_values_decay():
    result = figures.figure14_singular_values(scale=0.1)
    workload_sv = np.asarray(result["workload_singular_values"])
    random_sv = np.asarray(result["random_singular_values"])
    assert result["effective_rank_95"] <= 10
    # The workload spectrum is far more concentrated than the random one.
    workload_share = workload_sv[:5].sum() / workload_sv.sum()
    random_share = random_sv[:5].sum() / random_sv.sum()
    assert workload_share > random_share


def test_figure17_mc_comparison_structure(monkeypatch):
    monkeypatch.setattr(figures, "FILL_FRACTIONS", (0.2,))
    result = figures.figure17_mc_comparison(scale=0.3)
    assert set(result) == {"nuc", "svt", "als"}
    for series in result.values():
        assert len(series["mse"]) == 1
        assert len(series["seconds"]) == 1
    assert result["als"]["seconds"][0] <= result["nuc"]["seconds"][0]


def test_figure17_records_nan_only_for_a_completer_that_refuses_its_input(monkeypatch):
    """A refusal (CompletionError) is a NaN MSE in the figure; any other
    error is a broken completer and must not read as one."""
    monkeypatch.setattr(figures, "FILL_FRACTIONS", (0.2,))

    def refuse(self, observed, mask):
        raise CompletionError("refused")

    monkeypatch.setattr(figures.SVTCompleter, "complete", refuse)
    result = figures.figure17_mc_comparison(scale=0.3)
    assert np.isnan(result["svt"]["mse"]).all()
    assert np.isfinite(result["als"]["mse"]).all() and np.isfinite(result["nuc"]["mse"]).all()

    def broken(self, observed, mask):
        raise TypeError("broken")

    monkeypatch.setattr(figures.SVTCompleter, "complete", broken)
    with pytest.raises(TypeError, match="broken"):
        figures.figure17_mc_comparison(scale=0.3)


def test_figure10_incremental_drift_matches_model():
    result = figures.figure10_incremental_drift(scale=0.02)
    assert len(result["intervals"]) == len(result["expected"]) == len(result["simulated"])
    assert result["expected"] == sorted(result["expected"])


def test_stable_seed_is_pinned_across_processes():
    # Figure 10 seeds each age's shift with it: a new value is a new figure.
    assert figures.stable_seed("1 day") == 2505926394
    assert all(0 <= figures.stable_seed(age) < 2 ** 32 for age in DRIFT_BY_AGE)


def test_stable_seed_digests_its_parts_in_order():
    digest = hashlib.sha256(b"stack::1 year").digest()
    assert figures.stable_seed("stack", "1 year") == int.from_bytes(digest[:4], "little")
    assert figures.stable_seed("1 year", "stack") != figures.stable_seed("stack", "1 year")


def test_every_drift_age_draws_its_own_shift_seed():
    shift_seeds = {figures.stable_seed(age) % 1000 for age in DRIFT_BY_AGE}
    assert len(shift_seeds) == len(DRIFT_BY_AGE)


def test_figure18_bayesqo_limeqo_wins(job_small_workload):
    result = figures.figure18_bayesqo(scale=1.0, per_query_budget=0.2)
    bayes_final = result["bayesqo"]["latencies"][-1]
    limeqo_final = result["limeqo"]["latencies"][-1]
    assert limeqo_final <= bayes_final * 1.05
    assert result["total_budget"] > 0


def test_figure11_carried_over_latency_is_read_before_the_shifted_run_explores(monkeypatch):
    """The carried-over latency (and the trace's t = 0 point) is what the
    re-verified 2017 hints serve before exploring, not the run's end."""
    entered = []
    real_run = OfflineExplorer.run

    def run(explorer, *args, **kwargs):
        entered.append(explorer.matrix.workload_latency())
        return real_run(explorer, *args, **kwargs)

    monkeypatch.setattr(OfflineExplorer, "run", run)
    shifted = figures.figure11_data_shift(scale=0.02)["limeqo (data shift)"]
    assert shifted["carried_over_latency"] == entered[-1]  # the shifted run is the last
    assert shifted["carried_over_latency"] > shifted["latencies"][-1]
