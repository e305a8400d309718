"""Exception hierarchy for the LimeQO reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch a single base class.  Each subsystem has a dedicated subclass; the
message always explains what constraint was violated.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """Raised when a configuration value is out of its valid domain."""


class PlanError(ReproError):
    """Raised for invalid plan features (an empty pack, misshapen factors)."""


class MatrixError(ReproError):
    """Raised for invalid workload-matrix operations (shape mismatch, ...)."""


class CompletionError(ReproError):
    """Raised when a matrix-completion solver cannot run (e.g. empty mask)."""


class ExplorationError(ReproError):
    """Raised by exploration policies and the offline explorer."""


class NeuralNetworkError(ReproError):
    """Raised by the neural method (:mod:`repro.nn`)."""


class WorkloadError(ReproError):
    """Raised by workload generators and loaders."""


class ExperimentError(ReproError):
    """Raised by the experiment harness."""


class ServingError(ReproError):
    """Raised by the batched online serving layer."""


class ClusterError(ReproError):
    """Raised by the sharded multi-tenant serving cluster."""


class PerfError(ReproError):
    """Raised by the performance-regression harness."""


class ScenarioError(ReproError):
    """Raised by the declarative traffic/scenario engine."""


class AdaptiveError(ReproError):
    """Raised by the drift-aware adaptation controller."""


class IngressError(ReproError):
    """Raised by the asyncio ingress layer (coalescing front door)."""


class TelemetryError(ReproError):
    """Raised by the metrics registry / tracing / snapshot subsystem."""


class DurabilityError(ReproError):
    """Raised by the write-ahead log / snapshot / recovery subsystem."""


class WalCorruption(DurabilityError):
    """Raised when a WAL or snapshot fails validation during recovery.

    This is the *typed* failure mode of recovery: a CRC mismatch, an LSN
    gap, or an unreadable payload always surfaces here -- never as a
    silent wrong state and never as a raw ``struct`` / ``json`` error.
    A torn final record is NOT corruption (it is the normal artifact of
    a crash mid-append) and is discarded silently instead.
    """


class InjectedCrash(DurabilityError):
    """Raised by the fault-injection layer at an armed crash point.

    Simulates the process dying at exactly that instruction: whatever the
    current operation had not yet written stays unwritten, whatever it had
    already written stays on disk (possibly torn).  Callers that supervise
    shards (:class:`repro.cluster.ServingCluster`) translate it into a
    shard kill; nothing else should catch it.
    """
