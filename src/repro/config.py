"""Configuration dataclasses shared across the library.

Every knob the paper exposes (rank, regularisation, ALS iterations, the
selection batch size ``m``, the timeout multiplier ``alpha``, TCNN training
hyper-parameters) lives here so experiments can be described declaratively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConfigError


@dataclass(frozen=True)
class ALSConfig:
    """Hyper-parameters of the censored ALS solver (paper Algorithm 2).

    The paper's defaults are ``rank=5``, ``regularization=0.2``,
    ``iterations=50`` (Section 5, "Techniques and tests").  With the rank-1
    baseline initialisation used here (see :func:`repro.core.als.censored_als`)
    15 fill-in iterations are sufficient and noticeably more robust in the
    very sparse cold-start regime, so that is the default; pass
    ``iterations=50`` to match the paper exactly.

    ``tol`` enables an early stop on the objective trace: when the relative
    decrease of the masked squared error between consecutive iterations
    falls below ``tol``, the solve returns early (the trace is then shorter
    than ``iterations``).  The default of 0 disables the early stop so the
    iteration count -- and therefore the factor trajectory -- is exactly
    reproducible.
    """

    rank: int = 5
    regularization: float = 0.2
    iterations: int = 15
    nonnegative: bool = True
    censored: bool = True
    tol: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.regularization < 0:
            raise ConfigError(
                f"regularization must be >= 0, got {self.regularization}"
            )
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.tol < 0:
            raise ConfigError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class ExplorationConfig:
    """Knobs of the offline exploration loop (paper Algorithm 1).

    How the censored-ALS predictor warm-starts between steps is configured
    where the predictor is constructed
    (:class:`~repro.core.predictors.ALSPredictor`).
    """

    batch_size: int = 10
    timeout_alpha: float = 2.0
    max_steps: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.timeout_alpha <= 0:
            raise ConfigError(
                f"timeout_alpha must be > 0, got {self.timeout_alpha}"
            )
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class TCNNConfig:
    """Hyper-parameters of the (transductive) tree convolutional network.

    Defaults follow Section 5: embedding rank 5, dropout 0.3, Adam with
    batch size 32, at most 100 epochs with a 1%-over-10-epochs convergence
    criterion.
    """

    embedding_rank: int = 5
    channels: tuple = (64, 32, 16)
    hidden_units: tuple = (32, 16)
    dropout: float = 0.3
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    convergence_window: int = 10
    convergence_threshold: float = 0.01
    use_embeddings: bool = True
    censored: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embedding_rank < 1:
            raise ConfigError(
                f"embedding_rank must be >= 1, got {self.embedding_rank}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0:
            raise ConfigError(
                f"learning_rate must be > 0, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the drift-aware adaptation controller (:mod:`repro.adaptive`).

    Detection works over a sliding window of serving feedback: each served
    arrival whose measured latency deviates from the snapshot's expected
    latency by more than ``tolerance`` (relative error) counts as a drift
    exceedance, and the controller responds when the exceedance fraction
    crosses ``drift_threshold``.  Arrivals served with *no* observation at
    all (expected latency is infinite -- new templates, freshly invalidated
    rows) feed a second signal, the unseen rate, thresholded separately so
    a stream of brand-new queries triggers re-exploration even when nothing
    measured has drifted yet.  Below those global thresholds a *per-row*
    persistence gate still catches tails: any row with >= ``persistent_hits``
    exceedances (or unseen serves) inside one window gets swept by a
    budgeted response even though its traffic share never moved the global
    score -- repeated evidence on one row is drift, not noise.

    A response is budgeted: at most ``response_budget_cells`` live
    executions (default-plan re-measurements plus policy-selected
    exploration cells) per response, and at least ``cooldown_ticks``
    controller ticks between responses, so adaptation can never starve the
    serve path it protects.  Rows a response touched stay on a *recovery
    backlog* -- re-explored one budgeted pass at a time on quiet ticks --
    until ``reverify_observations`` of their cells are known again
    (``None``, the default, means every cell: a drifted optimum can land
    on any hint, so only full re-verification guarantees the lost upside
    is recovered rather than merely anchored back to the default plan;
    set an integer to trade completeness for execution cost).
    """

    window: int = 256
    tolerance: float = 0.35
    drift_threshold: float = 0.10
    unseen_threshold: float = 0.10
    min_samples: int = 32
    response_budget_cells: int = 64
    explore_batch_size: int = 8
    cooldown_ticks: int = 2
    reverify_observations: Optional[int] = None
    persistent_hits: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.tolerance <= 0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance}")
        if not 0.0 < self.drift_threshold <= 1.0:
            raise ConfigError(
                f"drift_threshold must be in (0, 1], got {self.drift_threshold}"
            )
        if not 0.0 < self.unseen_threshold <= 1.0:
            raise ConfigError(
                f"unseen_threshold must be in (0, 1], got {self.unseen_threshold}"
            )
        if self.min_samples < 1:
            raise ConfigError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.min_samples > self.window:
            raise ConfigError(
                f"min_samples ({self.min_samples}) cannot exceed the window "
                f"({self.window})"
            )
        if self.response_budget_cells < 1:
            raise ConfigError(
                "response_budget_cells must be >= 1, got "
                f"{self.response_budget_cells}"
            )
        if self.explore_batch_size < 1:
            raise ConfigError(
                f"explore_batch_size must be >= 1, got {self.explore_batch_size}"
            )
        if self.cooldown_ticks < 0:
            raise ConfigError(
                f"cooldown_ticks must be >= 0, got {self.cooldown_ticks}"
            )
        if self.persistent_hits < 1:
            raise ConfigError(
                f"persistent_hits must be >= 1, got {self.persistent_hits}"
            )
        if self.reverify_observations is not None and self.reverify_observations < 2:
            raise ConfigError(
                "reverify_observations must be >= 2 (default plan plus one "
                f"candidate) or None for full rows, got "
                f"{self.reverify_observations}"
            )


@dataclass(frozen=True)
class IngressConfig:
    """Knobs of the asyncio ingress layer (:mod:`repro.ingress`).

    The coalescer turns independent single-query ``await serve(...)`` calls
    into the vectorised batches the serving layer is fast at.  A batch is
    flushed as soon as ``max_batch`` requests are pending, as soon as the
    event loop goes quiet (a whole pass with no new arrival), or when the
    *oldest* pending request has waited ``max_wait_s`` -- whichever comes
    first, so ``max_wait_s`` is the cap on the queueing delay an arrival
    can be charged by coalescing (it bounds time-in-queue, not the
    backend's own decision time) and is only approached under a sustained
    trickle of arrivals.

    Admission is a bounded queue: at most ``queue_capacity`` requests may
    be pending at once.  Overflow arrivals are *shed*, not errored: they
    are answered immediately with the default plan (the paper's
    no-regression anchor, so shedding is safe by construction) and counted
    in :class:`~repro.serving.stats.ServingStats` under ``shed``.

    ``tick_interval_s`` / ``refresh_interval_s`` are the cadences of the
    background asyncio tasks a ``ClusterIngress`` hosts: the adaptation
    controller's detection tick (when it is given one) and the cluster
    refresh scheduler's tick.  Both run on the event loop between batches
    -- never on a request's await path.
    """

    max_batch: int = 256
    max_wait_s: float = 0.001
    queue_capacity: int = 4096
    tick_interval_s: float = 0.05
    refresh_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ConfigError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.queue_capacity < self.max_batch:
            raise ConfigError(
                f"queue_capacity ({self.queue_capacity}) must be >= max_batch "
                f"({self.max_batch}): a full batch must be admittable"
            )
        if self.tick_interval_s <= 0:
            raise ConfigError(
                f"tick_interval_s must be > 0, got {self.tick_interval_s}"
            )
        if self.refresh_interval_s <= 0:
            raise ConfigError(
                f"refresh_interval_s must be > 0, got {self.refresh_interval_s}"
            )


#: Default histogram bounds (seconds): :attr:`TelemetryConfig.latency_buckets`
#: and every :mod:`repro.telemetry.registry` histogram built without bounds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the observability layer (:mod:`repro.telemetry`).

    Telemetry is **off by default**: a service, cluster, or ingress built
    without a :class:`~repro.telemetry.Telemetry` object (or with one whose
    config has ``enabled=False``) runs exactly the pre-telemetry code path
    -- the hot paths normalise a disabled telemetry object to ``None`` at
    construction, so the disabled cost is literally zero extra allocations
    (asserted in ``tests/test_telemetry.py``).

    ``latency_buckets`` are the fixed upper bounds (seconds) of every
    stage/batch latency histogram.  Fixed buckets are what make per-shard
    histograms *mergeable*: merging is element-wise addition of bucket
    counts, and ``merge(a, b)`` equals observing the union of samples
    (hypothesis-verified).

    ``slow_trace_seconds`` is the admission threshold of the slow-trace
    ring: a finished request trace whose stage total meets it is kept in a
    ring buffer of the ``trace_ring`` most recent such traces (0.0, the
    default, keeps every trace -- "recent traces" -- which is what the
    demo's top-5-slowest listing reads).

    ``max_label_values`` bounds per-metric label cardinality: past the
    limit, new label sets collapse into a shared ``"__overflow__"`` child
    (and a registry-level overflow counter increments) instead of growing
    the registry without bound -- a tenant-id explosion must never OOM the
    metrics layer.
    """

    enabled: bool = False
    latency_buckets: tuple = DEFAULT_BUCKETS
    slow_trace_seconds: float = 0.0
    trace_ring: int = 64
    max_label_values: int = 64

    def __post_init__(self) -> None:
        if not self.latency_buckets:
            raise ConfigError("latency_buckets must not be empty")
        bounds = tuple(float(b) for b in self.latency_buckets)
        if any(b <= 0 for b in bounds):
            raise ConfigError("latency bucket bounds must be > 0")
        if list(bounds) != sorted(set(bounds)):
            raise ConfigError("latency_buckets must be strictly increasing")
        if self.slow_trace_seconds < 0:
            raise ConfigError(
                f"slow_trace_seconds must be >= 0, got {self.slow_trace_seconds}"
            )
        if self.trace_ring < 1:
            raise ConfigError(f"trace_ring must be >= 1, got {self.trace_ring}")
        if self.max_label_values < 1:
            raise ConfigError(
                f"max_label_values must be >= 1, got {self.max_label_values}"
            )


DEFAULT_TELEMETRY_CONFIG = TelemetryConfig()
DEFAULT_ADAPTIVE_CONFIG = AdaptiveConfig()
DEFAULT_INGRESS_CONFIG = IngressConfig()
DEFAULT_ALS_CONFIG = ALSConfig()
DEFAULT_EXPLORATION_CONFIG = ExplorationConfig()
DEFAULT_TCNN_CONFIG = TCNNConfig()
