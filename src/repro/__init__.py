"""LimeQO: low-rank learning for offline query optimization.

A from-scratch reproduction of "Low Rank Learning for Offline Query
Optimization" (SIGMOD 2025).  The public API re-exports the pieces a
downstream user needs most:

* workload construction (:mod:`repro.workloads`),
* the workload matrix and censored ALS (:mod:`repro.core`),
* exploration policies and the offline explorer / simulator,
* the online plan cache and the :class:`~repro.core.limeqo.LimeQO` facade,
* the batched high-throughput serving layer (:mod:`repro.serving`),
* the asyncio ingress with request coalescing and admission control
  (:mod:`repro.ingress`),
* the sharded multi-tenant serving cluster (:mod:`repro.cluster`),
* the drift-aware adaptation controller (:mod:`repro.adaptive`),
* the declarative traffic/scenario engine (:mod:`repro.scenarios`),
* durable shard state -- WAL, snapshots, crash recovery, fault
  injection (:mod:`repro.durability`),
* unified observability -- metrics registry, request tracing,
  exportable runtime snapshots (:mod:`repro.telemetry`),
* the simulated DBMS substrate (:mod:`repro.db`),
* the transductive TCNN, its hand-written backward and Adam in numpy
  (:mod:`repro.nn`),
* the experiment harness regenerating every table and figure
  (:mod:`repro.experiments`).

Quickstart::

    from repro import generate_workload, CEB_SPEC, ExplorationSimulator, LimeQOPolicy

    workload = generate_workload(CEB_SPEC.scaled(0.05), seed=0)
    simulator = ExplorationSimulator(workload.true_latencies)
    trace = simulator.run(LimeQOPolicy(), time_budget=0.5 * workload.default_total)
    print(trace.final_latency, "vs default", workload.default_total)
"""

from .adaptive import (
    AdaptiveStats,
    ClusterAdaptationController,
    DriftDetector,
    RowOracle,
)
from .config import (
    ALSConfig,
    ExplorationConfig,
    IngressConfig,
    TCNNConfig,
)
from .core import (
    ALSCompleter,
    ALSPredictor,
    BaoCachePolicy,
    CensoredALSResult,
    ExplorationPolicy,
    ExplorationSimulator,
    ExplorationTrace,
    GreedyPolicy,
    LimeQO,
    LimeQOPlusPolicy,
    LimeQOPolicy,
    MatrixCompleter,
    MatrixOracle,
    NuclearNormCompleter,
    OfflineExplorer,
    PlanCache,
    QOAdvisorPolicy,
    RandomPolicy,
    SVTCompleter,
    WorkloadMatrix,
    censored_als,
)
from .cluster import (
    ClusterShard,
    ClusterStats,
    HealthBoard,
    RefreshScheduler,
    RendezvousRouter,
    ServingCluster,
)
from .db import HintSet, all_hint_sets, default_hint_set
from .durability import (
    FaultInjector,
    ShardJournal,
    WriteAheadLog,
    recover_journal,
    recover_service,
)
from .errors import ReproError
from .ingress import (
    ClusterIngress,
    IngressDecision,
    IngressStats,
    ServiceIngress,
)
from .serving import (
    BatchDecisions,
    BatchedPlanCache,
    IncrementalALSRefresher,
    ServingService,
    ServingStats,
)
from .logging_util import configure_logging, get_logger
from .telemetry import (
    MetricsRegistry,
    Telemetry,
    TelemetrySnapshot,
    Tracer,
    collect_snapshot,
    write_telemetry_json,
)
from .scenarios import (
    ScenarioEvent,
    ScenarioPhase,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioTrace,
    TenantSpec,
    standard_scenarios,
)
from .workloads import (
    CEB_SPEC,
    DSB_SPEC,
    JOB_SPEC,
    STACK_SPEC,
    SyntheticWorkload,
    WorkloadSpec,
    build_database_workload,
    generate_workload,
    get_spec,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveStats",
    "ClusterAdaptationController",
    "DriftDetector",
    "RowOracle",
    "ScenarioEvent",
    "ScenarioPhase",
    "ScenarioRunner",
    "ScenarioSpec",
    "ScenarioTrace",
    "TenantSpec",
    "standard_scenarios",
    "ALSConfig",
    "ExplorationConfig",
    "IngressConfig",
    "TCNNConfig",
    "MetricsRegistry",
    "Telemetry",
    "TelemetrySnapshot",
    "Tracer",
    "collect_snapshot",
    "write_telemetry_json",
    "configure_logging",
    "get_logger",
    "ClusterIngress",
    "IngressDecision",
    "IngressStats",
    "ServiceIngress",
    "ALSCompleter",
    "ALSPredictor",
    "BaoCachePolicy",
    "CensoredALSResult",
    "ExplorationPolicy",
    "ExplorationSimulator",
    "ExplorationTrace",
    "GreedyPolicy",
    "LimeQO",
    "LimeQOPlusPolicy",
    "LimeQOPolicy",
    "MatrixCompleter",
    "MatrixOracle",
    "NuclearNormCompleter",
    "OfflineExplorer",
    "PlanCache",
    "QOAdvisorPolicy",
    "RandomPolicy",
    "SVTCompleter",
    "WorkloadMatrix",
    "censored_als",
    "HintSet",
    "all_hint_sets",
    "default_hint_set",
    "FaultInjector",
    "ShardJournal",
    "WriteAheadLog",
    "recover_journal",
    "recover_service",
    "ReproError",
    "ClusterShard",
    "ClusterStats",
    "HealthBoard",
    "RefreshScheduler",
    "RendezvousRouter",
    "ServingCluster",
    "BatchDecisions",
    "BatchedPlanCache",
    "IncrementalALSRefresher",
    "ServingService",
    "ServingStats",
    "CEB_SPEC",
    "DSB_SPEC",
    "JOB_SPEC",
    "STACK_SPEC",
    "SyntheticWorkload",
    "WorkloadSpec",
    "build_database_workload",
    "generate_workload",
    "get_spec",
    "__version__",
]
