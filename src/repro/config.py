"""Configuration dataclasses shared across the library.

Every knob the paper exposes that some experiment or deployment turns (rank,
ALS iterations, the selection batch size ``m``, the timeout multiplier
``alpha``, TCNN training hyper-parameters) lives here so experiments can be
described declaratively.  A value nothing turns is a named constant beside
the code that uses it: the ridge penalty in :mod:`repro.core.als`, the
exploration step cap in :mod:`repro.core.explorer`, the drift thresholds and
response budgets in :mod:`repro.adaptive`, the telemetry ring and label cap
in :mod:`repro.telemetry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import ConfigError


@dataclass(frozen=True)
class ALSConfig:
    """Hyper-parameters of the censored ALS solver (paper Algorithm 2).

    The paper's defaults are ``rank=5``, λ = 0.2 and ``iterations=50``
    (Section 5, "Techniques and tests").  With the rank-1 baseline
    initialisation used here (see :func:`repro.core.als.censored_als`) 15
    fill-in iterations are sufficient and noticeably more robust in the very
    sparse cold-start regime, so that is the default; pass ``iterations=50``
    to match the paper exactly.  λ is a constant of the solver
    (:data:`repro.core.als.REGULARIZATION`).  Every solve runs all of its
    iterations, so the factor trajectory is exactly reproducible.
    """

    rank: int = 5
    iterations: int = 15
    nonnegative: bool = True
    censored: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True)
class ExplorationConfig:
    """Knobs of the offline exploration loop (paper Algorithm 1).

    How the censored-ALS predictor warm-starts between steps is configured
    where the predictor is constructed
    (:class:`~repro.core.predictors.ALSPredictor`); how many steps a run may
    take at most is :data:`repro.core.explorer.MAX_STEPS`.
    """

    batch_size: int = 10
    timeout_alpha: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.timeout_alpha <= 0:
            raise ConfigError(
                f"timeout_alpha must be > 0, got {self.timeout_alpha}"
            )


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
    trickle of arrivals.  All three are checked by one callback on every
    event-loop pass while requests are pending, so the cap holds to within
    one pass; no timer is armed per batch.

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


#: Upper bounds (seconds) of every latency histogram
#: :mod:`repro.telemetry.registry` builds: fixed, so every shard's child of
#: a family has the same buckets and an exporter can sum them.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)
