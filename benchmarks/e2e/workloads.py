"""The six workloads: inputs made from the seed, one fixed-work round each.

A workload is ``setup()`` (generate inputs and reference answers, build the
program's objects; timed by the runner as ``setup_s``) and ``round()`` (one
round of fixed work against a fresh or read-only program state).  Each round
times only the program's own calls, checks the outputs against a reference
that does not share code with the serving path, and returns what the runner
needs for the end-to-end metrics plus the counts the per-layer table reads
from the program.  The program under test only ever sees generated inputs;
the seed stays on this side.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cluster import ServingCluster
from repro.config import ALSConfig, ExplorationConfig, IngressConfig, TCNNConfig
from repro.core import (
    ALSPredictor,
    ExplorationSimulator,
    LimeQOPlusPolicy,
    LimeQOPolicy,
    MatrixOracle,
    OfflineExplorer,
    WorkloadMatrix,
)
from repro.core.predictors import TransductiveTCNNPredictor
from repro.experiments.cluster import populate_cluster
from repro.experiments.serving import explored_matrix
from repro.ingress import ClusterIngress
from repro.scenarios import (
    ScenarioEvent,
    ScenarioPhase,
    ScenarioRunner,
    ScenarioSpec,
    TenantSpec,
)
from repro.workloads import CEB_SPEC, DSB_SPEC, JOB_SPEC, generate_workload

clock = time.perf_counter

N_SHARDS = 4
SERVE_BATCH = 256
#: The values of ``benchmarks/_bench_utils.BENCH_TCNN_CONFIG``, copied so the
#: benchmark does not move when the figure benchmarks retune theirs.
TCNN_CONFIG = TCNNConfig(
    embedding_rank=5,
    channels=(8,),
    hidden_units=(16,),
    dropout=0.2,
    learning_rate=3e-3,
    batch_size=128,
    max_epochs=6,
    convergence_window=3,
    convergence_threshold=0.01,
)
INGRESS_CONFIG = IngressConfig(
    max_batch=SERVE_BATCH,
    max_wait_s=0.001,
    queue_capacity=4096,
    # Background ticks stay out of the read-only rounds.
    tick_interval_s=3600,
    refresh_interval_s=3600,
)

#: Work per round.  ``full`` keeps the paper-scale shapes; a round is sized to
#: about 1-2.5 s so that several fit in one timed run.  ``smoke`` only has to
#: reach every layer (used by the test).
SHAPES = {
    "full": {
        "tenant_fraction": 1.0,
        "explore_ceb": {"steps": 150, "query_fraction": 1.0},
        "explore_tcnn": {"steps": 30, "query_fraction": 1.0},
        "serve_dense": {"clients": 256, "requests": 200},
        "serve_sparse": {"clients": 4, "requests": 350},
        "feedback_durable": {"iterations": 240, "checkpoint_at": 80, "recoveries": 2},
        "adapt_drift": {
            "queries": 400, "cycles": 3, "kill_every": 3, "phase_ticks": 10, "batch": 512,
        },
    },
    "smoke": {
        "tenant_fraction": 0.04,
        "explore_ceb": {"steps": 12, "query_fraction": 0.02},
        "explore_tcnn": {"steps": 3, "query_fraction": 0.2},
        "serve_dense": {"clients": 256, "requests": 3},
        "serve_sparse": {"clients": 4, "requests": 12},
        "feedback_durable": {"iterations": 24, "checkpoint_at": 10, "recoveries": 1},
        "adapt_drift": {
            "queries": 30, "cycles": 1, "kill_every": 1, "phase_ticks": 2, "batch": 64,
        },
    },
}


class Window:
    """Wall and CPU clocks around the program's work of one round."""

    def __enter__(self) -> "Window":
        self.cpu_s = time.process_time()
        self.start = clock()
        return self

    def __exit__(self, *exc) -> None:
        self.end = clock()
        self.cpu_s = time.process_time() - self.cpu_s

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Round:
    """What one round did, for the runner to turn into metrics."""

    window: Window                # everything the program did this round
    wall_s: float                 # the part of the window ``ops`` is counted over
    ops: int                      # units of work done in ``wall_s``
    op_ms: np.ndarray             # wall per unit operation
    quality: float                # served latency / always-default latency
    attempted: int
    failed: int
    requests: int = 0             # decisions asked of the serving layer
    ticks: int = 0                # scenario ticks
    counters: Dict[str, float] = field(default_factory=dict)


def observed_latencies(matrix: WorkloadMatrix) -> np.ndarray:
    """The matrix as a bare array: observed latency, or inf where there is none."""
    return np.where(matrix.mask > 0, matrix.values, np.inf)


def reference_hints(seen: np.ndarray, default_hint: int = 0) -> np.ndarray:
    """The serving rule, restated over rows of :func:`observed_latencies`.

    Best observed latency per row; served only if it beats the observed
    default, else the default hint.
    """
    best = seen.argmin(axis=1)
    best_latency = seen[np.arange(len(best)), best]
    beats = np.isfinite(best_latency) & (best_latency <= seen[:, default_hint])
    return np.where(beats, best, default_hint)


class Workload:
    """Common shape of the six workloads."""

    name = ""
    ops_unit = ""       # what ``ops_per_s`` counts
    op_name = ""        # what ``op_p50_ms`` times

    def __init__(self, seed: int, scale: str, scratch: str) -> None:
        self.seed = int(seed)
        self.shape = SHAPES[scale][self.name]
        self.tenant_fraction = SHAPES[scale]["tenant_fraction"]
        self.scratch = scratch
        self._dirs = 0

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def fresh_dir(self) -> str:
        """An empty journal directory inside the benchmark's own scratch."""
        self._dirs += 1
        path = os.path.join(self.scratch, f"{self.name}-{self._dirs}")
        os.makedirs(path)
        return path

    def tenants(self, observed_fraction: float):
        """``(name, truth, explored matrix)`` for the three paper workloads."""
        out = []
        for offset, spec in enumerate((CEB_SPEC, DSB_SPEC, JOB_SPEC)):
            workload = generate_workload(
                spec.scaled(self.tenant_fraction), seed=self.seed + offset
            )
            matrix = explored_matrix(
                workload, observed_fraction=observed_fraction, seed=self.seed + offset
            )
            out.append((spec.name, workload.true_latencies, matrix))
        return out


# -- offline exploration -------------------------------------------------------
class _Explore(Workload):
    ops_unit = "cells selected, executed and recorded"
    op_name = "OfflineExplorer.step"
    spec = None

    def setup(self) -> None:
        self.workload = generate_workload(
            self.spec.scaled(self.shape["query_fraction"]), seed=self.seed
        )
        self.truth = self.workload.true_latencies
        self.simulator = ExplorationSimulator(self.truth)

    def policy(self):
        raise NotImplementedError

    def round(self) -> Round:
        matrix = self.simulator.initial_matrix()
        policy = self.policy()
        explorer = OfflineExplorer(
            matrix,
            policy,
            MatrixOracle(self.truth),
            ExplorationConfig(batch_size=10, seed=self.seed),
        )
        n_steps = self.shape["steps"]
        step_s = []
        with Window() as window:
            for _ in range(n_steps):
                began = clock()
                explorer.step()
                step_s.append(clock() - began)

        steps = explorer.steps
        default_total = float(self.truth[:, 0].sum())
        cells = censored = useful = 0
        row_best = self.truth[:, 0].copy()
        at_budget = None
        for step in steps:
            for (query, _), result in zip(step.selected, step.results):
                cells += 1
                if result.timed_out:
                    censored += 1
                elif result.latency < row_best[query]:
                    useful += 1
                    row_best[query] = result.latency
            if at_budget is None and step.cumulative_exploration_time >= default_total:
                at_budget = step.workload_latency / default_total
        quality = steps[-1].workload_latency / default_total if steps else 1.0

        # Never slower than the default on what was observed.
        recommended = np.asarray(explorer.recommend_hints())
        rows = np.arange(matrix.n_queries)
        regressions = int(
            np.count_nonzero(matrix.values[rows, recommended] > matrix.values[rows, 0])
        )
        failed = (n_steps - len(steps)) + regressions + int(quality > 1.0)
        predictor = policy.predictor
        return Round(
            window=window,
            wall_s=window.wall_s,
            ops=cells,
            op_ms=np.asarray(step_s) * 1e3,
            quality=quality,
            attempted=n_steps + matrix.n_queries + 1,
            failed=failed,
            counters={
                "als_cold_solves": getattr(predictor, "cold_solves", 0),
                "als_warm_solves": getattr(predictor, "warm_solves", 0),
                "censored_share": censored / cells if cells else 0.0,
                "useful_cell_share": useful / cells if cells else 0.0,
                "latency_ratio_at_budget": quality if at_budget is None else at_budget,
            },
        )


class ExploreCeb(_Explore):
    name = "explore_ceb"
    spec = CEB_SPEC

    def policy(self):
        return LimeQOPolicy(ALSPredictor(ALSConfig()))


class ExploreTcnn(_Explore):
    name = "explore_tcnn"
    spec = JOB_SPEC

    def setup(self) -> None:
        super().setup()
        self.features = self.workload.feature_store()

    def policy(self):
        return LimeQOPlusPolicy(TransductiveTCNNPredictor(self.features, TCNN_CONFIG))


# -- read-only serving through the asyncio ingress --------------------------------
class _Serve(Workload):
    ops_unit = "plan decisions"
    op_name = "await ClusterIngress.serve (client side)"

    def setup(self) -> None:
        tenants = self.tenants(observed_fraction=0.25)
        self.cluster = ServingCluster(N_SHARDS, tenants[0][1].shape[1])
        for name, _, matrix in tenants:
            populate_cluster(self.cluster, name, matrix)
        clients, per_client = self.shape["clients"], self.shape["requests"]
        rng = np.random.default_rng([self.seed, 101])
        total = clients * per_client
        self.tenant_of = rng.integers(0, len(tenants), size=total)
        self.query_of = np.zeros(total, dtype=np.int64)
        self.expected = np.zeros(total, dtype=np.int64)
        self.truth = [truth for _, truth, _ in tenants]
        default_total = 0.0
        for index, (name, truth, matrix) in enumerate(tenants):
            mine = self.tenant_of == index
            self.query_of[mine] = rng.integers(0, truth.shape[0], size=int(mine.sum()))
            self.expected[mine] = reference_hints(observed_latencies(matrix))[self.query_of[mine]]
            default_total += float(truth[self.query_of[mine], 0].sum())
        self.default_total = default_total
        names = [name for name, _, _ in tenants]
        # Drawing requests inside the loop would halve the measured rate.
        arrivals = [
            (names[t], int(q)) for t, q in zip(self.tenant_of, self.query_of)
        ]
        self.plans = [
            arrivals[c * per_client:(c + 1) * per_client] for c in range(clients)
        ]

    async def _drive(self):
        async def client(ingress, plan, answers, waited):
            for tenant, query in plan:
                began = clock()
                answers.append(await ingress.serve(tenant, query))
                waited.append(clock() - began)

        answers: List[list] = [[] for _ in self.plans]
        waited: List[float] = []
        async with ClusterIngress(self.cluster, INGRESS_CONFIG) as ingress:
            with Window() as window:
                await asyncio.gather(
                    *(
                        client(ingress, plan, out, waited)
                        for plan, out in zip(self.plans, answers)
                    )
                )
            stats = ingress.stats()
        return window, answers, waited, stats

    def round(self) -> Round:
        window, answers, waited, stats = asyncio.run(self._drive())
        decisions = [d for out in answers for d in out]
        hints = np.fromiter((d.hint for d in decisions), dtype=np.int64, count=len(decisions))
        shed = sum(1 for d in decisions if d.shed)
        mismatched = int(np.count_nonzero(hints != self.expected))
        served = sum(
            float(truth[self.query_of[self.tenant_of == i], hints[self.tenant_of == i]].sum())
            for i, truth in enumerate(self.truth)
        )
        waited_ms = np.asarray(waited) * 1e3
        cluster = self.cluster.stats()
        return Round(
            window=window,
            wall_s=window.wall_s,
            ops=len(decisions),
            op_ms=waited_ms,
            quality=served / self.default_total,
            attempted=len(decisions),
            failed=mismatched + shed,
            requests=len(decisions),
            counters={
                "queue_wait_ms_mean": stats.mean_queue_wait_s * 1e3,
                "queue_wait_ms_max": stats.max_queue_wait_s * 1e3,
                "batch_size_mean": stats.mean_batch_size,
                "flushed_batches": stats.flushed_batches,
                "request_p99_ms": float(np.percentile(waited_ms, 99)),
                "shed": stats.shed,
                "fan_out_mean": cluster.fan_out,
                "degraded_decisions": cluster.degraded_decisions,
            },
        )


class ServeDense(_Serve):
    name = "serve_dense"


class ServeSparse(_Serve):
    name = "serve_sparse"


# -- writes beside reads, with journaling and recovery ------------------------------
class FeedbackDurable(Workload):
    name = "feedback_durable"
    ops_unit = "observations journaled and applied"
    op_name = f"ServingCluster.serve_batch of {SERVE_BATCH} right after a write"

    def setup(self) -> None:
        self.tenant_data = self.tenants(observed_fraction=0.1)
        iterations = self.shape["iterations"]
        rng = np.random.default_rng([self.seed, 202])
        self.plan = []
        # The reference replays the same stream over bare arrays (for every
        # serve decision) and over a plain WorkloadMatrix (for the final state).
        seen = [observed_latencies(matrix) for _, _, matrix in self.tenant_data]
        self.reference = [matrix.copy() for _, _, matrix in self.tenant_data]
        for it in range(iterations):
            tenant = it % len(self.tenant_data)
            name, truth, _ = self.tenant_data[tenant]
            n, k = truth.shape
            serve_q = rng.integers(0, n, size=SERVE_BATCH)
            obs_q = rng.integers(0, n, size=SERVE_BATCH)
            obs_h = rng.integers(0, k, size=SERVE_BATCH)
            latencies = truth[obs_q, obs_h]
            expected = reference_hints(seen[tenant][serve_q])
            self.plan.append((name, serve_q, obs_q, obs_h, latencies, expected))
            seen[tenant][obs_q, obs_h] = latencies
            self.reference[tenant].observe_batch(obs_q, obs_h, latencies)

    def round(self) -> Round:
        home = self.fresh_dir()
        n_hints = self.tenant_data[0][1].shape[1]
        cluster = ServingCluster(
            N_SHARDS, n_hints, durability_dir=home, journal_sync="os"
        )
        try:
            return self._round(cluster)
        finally:
            cluster.close()
            shutil.rmtree(home, ignore_errors=True)

    def _round(self, cluster: ServingCluster) -> Round:
        for name, _, matrix in self.tenant_data:
            populate_cluster(cluster, name, matrix)
        journals = [shard.journal for shard in cluster.shards.values()]
        bytes_before = sum(j.appended_bytes for j in journals)
        records_before = sum(j.appended_records for j in journals)
        checkpoint_at = self.shape["checkpoint_at"]
        serve_s, served_hints, dirty = [], [], []
        with Window() as window:
            for it, (name, serve_q, obs_q, obs_h, latencies, _) in enumerate(self.plan):
                began = clock()
                decisions = cluster.serve_batch(name, serve_q)
                serve_s.append(clock() - began)
                served_hints.append(decisions.hints)
                cluster.observe_batch(name, obs_q, obs_h, latencies)
                if it % 8 == 7:
                    dirty.append(len(cluster.scheduler.dirty_shards()))
                    cluster.tick()
                if it + 1 == checkpoint_at:
                    cluster.checkpoint()
            loop_s = clock() - window.start
            # Restarting replaces the shards, so their counters are read first.
            rows = len(self.plan) * SERVE_BATCH
            appended_bytes = sum(j.appended_bytes for j in journals) - bytes_before
            shards = cluster.shards.values()
            counters = {
                "appended_records": sum(j.appended_records for j in journals) - records_before,
                "appended_bytes": appended_bytes,
                "wal_bytes_per_row": appended_bytes / rows,
                "on_disk_bytes_end": sum(j.on_disk_bytes() for j in journals),
                "warm_refreshes": sum(s.refresher.warm_refreshes for s in shards),
                "refresh_cold_solves": sum(s.refresher.cold_solves for s in shards),
                "dirty_shards_mean": float(np.mean(dirty)) if dirty else 0.0,
            }
            recovery_s, replayed = [], 0
            for _ in range(self.shape["recoveries"]):
                began = clock()
                for shard_id in cluster.shard_ids:
                    cluster.kill_shard(shard_id)
                    replayed += cluster.restart_shard(shard_id).replayed_records
                recovery_s.append(clock() - began)
        counters["recovery_ms"] = float(np.median(recovery_s)) * 1e3
        counters["replayed_records"] = replayed

        mismatched = sum(
            int(np.count_nonzero(hints != step[5]))
            for hints, step in zip(served_hints, self.plan)
        )
        served = default = 0.0
        for (name, truth, _), plain in zip(self.tenant_data, self.reference):
            recovered = cluster.export_tenant_matrix(name).to_dict()
            expected = plain.to_dict()
            mismatched += any(
                np.asarray(recovered[key]).tobytes() != np.asarray(expected[key]).tobytes()
                for key in ("values", "observed", "censored", "timeouts")
            )
            final = cluster.serve_all(name)
            served += float(truth[final.queries, final.hints].sum())
            default += float(truth[:, 0].sum())
        stats = cluster.stats()
        counters["fan_out_mean"] = stats.fan_out
        counters["degraded_decisions"] = stats.degraded_decisions
        return Round(
            window=window,
            wall_s=loop_s,
            ops=rows,
            op_ms=np.asarray(serve_s) * 1e3,
            quality=served / default,
            attempted=rows + len(self.tenant_data),
            failed=mismatched,
            requests=rows,
            counters=counters,
        )


# -- online adaptation under drift and shard crashes ----------------------------------
class AdaptDrift(Workload):
    name = "adapt_drift"
    ops_unit = "scenario ticks"
    op_name = "ScenarioRunner.run (whole scenario)"

    def setup(self) -> None:
        shape = self.shape
        names = ["t0", "t1", "t2"]
        tenants = tuple(
            TenantSpec(name=name, n_queries=shape["queries"], n_hints=49, seed=i)
            for i, name in enumerate(names)
        )
        phases, events, tick = [], [], 0
        for cycle in range(shape["cycles"]):
            phases.append(
                ScenarioPhase(f"steady{cycle}", shape["phase_ticks"], batch_size=shape["batch"])
            )
            tick += shape["phase_ticks"]
            events.append(
                ScenarioEvent(
                    tick,
                    "data_drift",
                    tenant=names[cycle % len(names)],
                    params={"changed_fraction": 0.3, "growth_factor": 1.15},
                )
            )
            phases.append(
                ScenarioPhase(
                    f"aging{cycle}",
                    shape["phase_ticks"],
                    batch_size=shape["batch"],
                    drift_per_tick={"changed_fraction": 0.04, "growth_factor": 1.008},
                )
            )
            if cycle % shape["kill_every"] == shape["kill_every"] - 1:
                shard = (cycle // shape["kill_every"]) % N_SHARDS
                last = tick + shape["phase_ticks"] - 1
                killed = min(tick + 1, last)
                events.append(ScenarioEvent(killed, "kill_shard", params={"shard": shard}))
                events.append(
                    ScenarioEvent(min(killed + 4, last), "restart_shard", params={"shard": shard})
                )
            tick += shape["phase_ticks"]
        self.spec = ScenarioSpec(
            "adapt_drift", self.seed, tenants, tuple(phases), tuple(events)
        )
        # The static run sees the same traffic; its totals are the reference
        # for "same arrivals" and "adaptation helps".
        self.static = self._run(adaptive=False)[1].summary()
        self.first_blob = None

    def _run(self, adaptive: bool):
        home = self.fresh_dir()
        try:
            runner = ScenarioRunner(
                self.spec, target="cluster", adaptive=adaptive,
                n_shards=N_SHARDS, durability_dir=home,
            )
            with Window() as window:
                trace = runner.run()
            return window, trace
        finally:
            shutil.rmtree(home, ignore_errors=True)

    def round(self) -> Round:
        window, trace = self._run(adaptive=True)
        summary = trace.summary()
        blob = hashlib.sha256(trace.decisions_blob()).hexdigest()
        if self.first_blob is None:
            self.first_blob = blob
        failed = (
            int(summary["served_latency"] > summary["default_latency"])
            + int(summary["default_latency"] != self.static["default_latency"])
            + int(blob != self.first_blob)
        )
        report = trace.adaptive_report or {}
        ticks = int(summary["ticks"])
        return Round(
            window=window,
            wall_s=window.wall_s,
            ops=ticks,
            op_ms=np.asarray([window.wall_s * 1e3]),
            quality=summary["served_latency"] / summary["default_latency"],
            attempted=int(summary["arrivals"]) + 3,
            failed=failed,
            requests=int(summary["arrivals"]),
            ticks=ticks,
            counters={
                "responses": report.get("responses", 0),
                "explored_cells": report.get("explored_cells", 0),
                "invalidated_rows": report.get("invalidated_rows", 0),
            },
        )


WORKLOADS = {
    cls.name: cls
    for cls in (ExploreCeb, ExploreTcnn, ServeDense, ServeSparse, FeedbackDurable, AdaptDrift)
}
