"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ExplorationConfig, TCNNConfig
from repro.core.workload_matrix import WorkloadMatrix
from repro.workloads.matrices import generate_workload
from repro.workloads.spec import CEB_SPEC, JOB_SPEC, WorkloadSpec

try:
    from hypothesis import settings
except ImportError:  # CI's example-smoke job installs numpy and pytest only
    pass
else:
    #: A deeper search for the journal machine, the counter-conservation
    #: interleavings and routing under a moving topology (where an UP shard's
    #: error surfaces), for CI's ``chaos`` job: ``pytest tests/test_journal_machine.py
    #: tests/test_telemetry.py::TestCounterConservation
    #: tests/test_ingress_pairing.py::TestRoutingUnderChange --hypothesis-profile=chaos``.
    settings.register_profile(
        "chaos", max_examples=300, stateful_step_count=60, deadline=None
    )


@pytest.fixture(scope="session")
def tiny_spec() -> WorkloadSpec:
    """A very small spec for fast unit tests (40 queries, 49 hints)."""
    return WorkloadSpec(
        name="tiny", n_queries=40, default_total=400.0, optimal_total=160.0
    )


@pytest.fixture(scope="session")
def tiny_workload(tiny_spec):
    """A small calibrated synthetic workload."""
    return generate_workload(tiny_spec, seed=7)


@pytest.fixture(scope="session")
def job_small_workload():
    """A JOB-sized synthetic workload (113 x 49)."""
    return generate_workload(JOB_SPEC, seed=3)


@pytest.fixture(scope="session")
def ceb_mini_workload():
    """A scaled-down CEB workload for integration-style tests."""
    return generate_workload(CEB_SPEC.scaled(0.03), seed=1)


@pytest.fixture
def partially_observed_matrix(tiny_workload) -> WorkloadMatrix:
    """Default column plus ~10% of entries observed, a few censored."""
    truth = tiny_workload.true_latencies
    n, k = truth.shape
    matrix = WorkloadMatrix(n, k)
    rng = np.random.default_rng(11)
    for i in range(n):
        matrix.observe(i, 0, float(truth[i, 0]))
    extra = rng.random((n, k)) < 0.1
    for i in range(n):
        for j in range(1, k):
            if extra[i, j]:
                matrix.observe(i, j, float(truth[i, j]))
    # Censor a couple of entries at half their true latency.
    for i, j in [(0, 5), (3, 9)]:
        if not matrix.is_observed(i, j):
            matrix.observe_censored(i, j, float(truth[i, j]) / 2.0)
    return matrix


@pytest.fixture
def fast_tcnn_config() -> TCNNConfig:
    """TCNN configuration small enough for unit tests."""
    return TCNNConfig(
        embedding_rank=3,
        channels=(8,),
        hidden_units=(8,),
        dropout=0.1,
        batch_size=16,
        max_epochs=3,
        convergence_window=2,
    )


@pytest.fixture
def exploration_config() -> ExplorationConfig:
    """Exploration loop configuration for unit tests."""
    return ExplorationConfig(batch_size=5, seed=0)
