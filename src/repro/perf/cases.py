"""The library's named hot paths, packaged as perf cases.

Seventeen paths cover every layer a figure benchmark or the serving stack
exercises:

* ``als_cold``       -- one full censored-ALS solve from scratch,
* ``als_warm``       -- a warm-started incremental refresh after a small
                        feedback batch (the serving/exploration steady state),
* ``als_warm_ceb``   -- the same refresh at the paper's CEB shape (3133x49,
                        ~3% observed) whatever the scale: costs that grow
                        with ``n`` are invisible on the smoke shape,
* ``explore_step_ceb`` -- five warm Algorithm 1 steps at that shape (hand-off,
                        solve, Eq. 6, a 10-cell write), each after the same
                        solve alone: ``outside_solver_ms`` is what a step
                        costs around the solver (medians of the five),
* ``explore_200_steps`` -- the end-to-end offline exploration loop
                        (Algorithm 1 with the incremental ALS predictor),
* ``tcnn_predict_full`` -- a full-matrix TCNN prediction pass,
* ``tcnn_fit``       -- one warm TCNN ``fit`` at the e2e benchmark's shape
                        (JOB 113x49, its TCNN config, ~250 training cells)
                        whatever the scale: the training half of an
                        ``explore_tcnn`` step,
* ``serve_batch``    -- the batched online serving path,
* ``serve_after_write`` -- a 256-cell feedback batch then a 256-query
                        ``serve_batch`` on one e2e-sized shard (800x49):
                        what a write costs the next reader (a row patch),
* ``telemetry_overhead`` -- the same serving loop with telemetry
                        *enabled* (stage timing); its normalised cost
                        tracks the instrumentation tax against
                        ``serve_batch``,
* ``ingress_serve``  -- the asyncio front door: per-request awaits
                        coalesced into vectorised batches (event-loop,
                        future, and coalescer overhead included),
* ``ingress_sparse`` -- the same front door at low occupancy: four
                        closed-loop clients, so no batch ever fills and
                        every flush is the quiescence probe's (the
                        ``max_wait_s`` timer must never be what a sparse
                        request waits for),
* ``ingress_dense``  -- the front door full: 256 closed-loop clients over
                        a 3-tenant, 4-shard ``ClusterIngress`` (every
                        batch leaves on size), then the same clients
                        against a door with nothing behind it, so the
                        report splits a request into the asyncio
                        harness's share and the product's microseconds,
* ``adapt_drift``    -- the drift-adaptation loop: residual recording,
                        detection, and one budgeted response (invalidate +
                        re-anchor + re-explore + warm refresh),
* ``wal_append``     -- the write-ahead journal's append hot path (frame +
                        CRC + unbuffered write per feedback batch),
* ``recovery_replay`` -- crash recovery: snapshot load plus WAL replay
                        back to a live matrix,
* ``checkpoint``     -- ``ClusterShard.checkpoint`` then ``load_snapshot``
                        at the same 800x49 shape (the array codec both ways).

Two scales are provided: ``smoke`` (seconds, used by the CI perf job) and
``default`` (the numbers quoted in ``docs/performance.md``).
"""

from __future__ import annotations

import asyncio
import time
import timeit
from typing import Dict

import numpy as np

from ..config import ALSConfig, ExplorationConfig, IngressConfig, TCNNConfig
from ..core.als import censored_als
from ..core.explorer import MatrixOracle, OfflineExplorer
from ..core.plan_cache import CacheSnapshot
from ..core.policies import LimeQOPolicy
from ..core.predictors import ALSPredictor
from ..core.simulation import ExplorationSimulator
from ..core.workload_matrix import WorkloadMatrix
from ..errors import PerfError
from ..serving.service import ServingService
from ..workloads.matrices import generate_workload
from ..workloads.spec import CEB_SPEC, JOB_SPEC, WorkloadSpec
from .harness import PerfHarness

SCALES: Dict[str, Dict[str, int]] = {
    "smoke": {
        "n_queries": 60,
        "n_hints": 16,
        "explore_steps": 60,
        "serve_batches": 50,
        "serve_batch_size": 512,
        "ingress_requests": 2000,
        "wal_appends": 400,
        "replay_records": 300,
        "repeats": 3,
    },
    "default": {
        "n_queries": 150,
        "n_hints": 24,
        "explore_steps": 200,
        "serve_batches": 200,
        "serve_batch_size": 1024,
        "ingress_requests": 8000,
        "wal_appends": 2000,
        "replay_records": 1500,
        "repeats": 3,
    },
}


class _NullDoor:
    """``ClusterIngress``'s calling convention with no product behind it.

    One future per request, all resolved with a canned answer on the next
    loop pass: what a closed-loop asyncio harness costs by itself.
    """

    def __init__(self) -> None:
        self._waiting: list = []

    async def __aenter__(self) -> "_NullDoor":
        self._loop = asyncio.get_running_loop()
        return self

    async def __aexit__(self, *exc) -> None:
        pass

    async def serve(self, tenant: str, query: int) -> None:
        future = self._loop.create_future()
        if not self._waiting:
            self._loop.call_soon(self._answer)
        self._waiting.append(future)
        return await future

    def _answer(self) -> None:
        waiting, self._waiting = self._waiting, []
        for future in waiting:
            future.set_result(None)


def _closed_loop(door, plans) -> float:
    """Seconds for one client per plan to ``await door.serve(*request)`` its
    requests back to back, all clients at once (``door`` starts and stops)."""

    async def client(plan):
        for request in plan:
            await door.serve(*request)

    async def drive():
        async with door:
            began = time.perf_counter()
            await asyncio.gather(*map(client, plans))
            return time.perf_counter() - began

    return asyncio.run(drive())


def _workload(scale: Dict[str, int], seed: int = 11):
    spec = WorkloadSpec(
        name=f"perf-{scale['n_queries']}x{scale['n_hints']}",
        n_queries=scale["n_queries"],
        n_hints=scale["n_hints"],
        default_total=10.0 * scale["n_queries"],
        optimal_total=3.5 * scale["n_queries"],
        rank=5,
    )
    return generate_workload(spec, seed=seed)


def _partial_matrix(workload, fill: float = 0.25, seed: int = 3) -> WorkloadMatrix:
    """A partially observed matrix with a revealed default column and a few
    censored cells -- the state censored ALS sees mid-exploration."""
    n, k = workload.true_latencies.shape
    rng = np.random.default_rng(seed)
    matrix = WorkloadMatrix(n, k)
    matrix.observe_batch(
        np.arange(n), np.zeros(n, dtype=np.int64), workload.true_latencies[:, 0]
    )
    extra = rng.random((n, k)) < fill
    extra[:, 0] = False
    rows, cols = np.nonzero(extra)
    matrix.observe_batch(rows, cols, workload.true_latencies[rows, cols])
    for i in range(0, n, max(1, n // 6)):
        j = 1 + (i % (k - 1))
        if not matrix.is_observed(i, j):
            matrix.observe_censored(i, j, float(workload.true_latencies[i, j]) * 0.5)
    return matrix


def _shard_matrix(rng) -> WorkloadMatrix:
    """One e2e-benchmark shard: 800x49, the default column plus ~10% observed."""
    observed = rng.random((800, 49)) < 0.1
    observed[:, 0] = True
    rows, cols = np.nonzero(observed)
    matrix = WorkloadMatrix(800, 49)
    matrix.observe_batch(rows, cols, rng.uniform(0.5, 20.0, rows.size))
    return matrix


def _best_us(run) -> float:
    return round(min(timeit.repeat(run, number=1, repeat=30)) * 1e6, 1)


def build_suite(scale_name: str = "smoke") -> PerfHarness:
    """Assemble the named hot-path suite at the requested scale."""
    if scale_name not in SCALES:
        raise PerfError(
            f"unknown scale {scale_name!r}; choose from {sorted(SCALES)}"
        )
    scale = SCALES[scale_name]
    repeats = scale["repeats"]
    harness = PerfHarness()

    # -- als_cold ----------------------------------------------------------
    def setup_als():
        workload = _workload(scale)
        matrix = _partial_matrix(workload)
        return (
            matrix.observed_values(),
            matrix.mask,
            matrix.timeout_matrix,
            ALSConfig(iterations=50),
        )

    def run_als_cold(state):
        observed, mask, timeouts, config = state
        result = censored_als(observed, mask, timeouts, config)
        return {"iterations": int(len(result.objective_trace))}

    harness.add("als_cold", run_als_cold, setup=setup_als, repeats=repeats)

    # -- als_warm ----------------------------------------------------------
    def setup_als_warm():
        workload = _workload(scale)
        matrix = _partial_matrix(workload)
        config = ALSConfig(iterations=50)
        cold = censored_als(
            matrix.observed_values(), matrix.mask, matrix.timeout_matrix, config
        )
        # A small feedback batch lands, then the factors are refreshed warm.
        rng = np.random.default_rng(17)
        unknown = np.flatnonzero(matrix.unknown_mask())
        picks = unknown[rng.choice(unknown.size, size=min(10, unknown.size), replace=False)]
        rows, cols = np.divmod(picks, matrix.n_hints)
        matrix.observe_batch(rows, cols, workload.true_latencies[rows, cols])
        return (
            matrix.observed_values(),
            matrix.mask,
            matrix.timeout_matrix,
            config,
            cold.factors,
        )

    def run_als_warm(state):
        observed, mask, timeouts, config, factors = state
        result = censored_als(
            observed, mask, timeouts, config, warm_start=factors, iterations=5
        )
        return {"iterations": int(len(result.objective_trace))}

    harness.add("als_warm", run_als_warm, setup=setup_als_warm, repeats=repeats)

    # -- als_warm_ceb ------------------------------------------------------
    def setup_als_warm_ceb():
        # Mid-exploration CEB: the default column plus ~3% of the cells
        # observed, ~15% of the other non-default cells censored.
        truth = generate_workload(CEB_SPEC, seed=11).true_latencies
        draw = np.random.default_rng(19).random(truth.shape)
        draw[:, 0] = 0.0
        mask = (draw < 0.03).astype(float)
        timeouts = np.where(draw > 0.85, 0.5 * truth, 0.0)
        config = ALSConfig()
        cold = censored_als(truth, mask, timeouts, config)
        fresh = np.flatnonzero((draw > 0.5) & (draw < 0.5005))  # a feedback batch
        mask.reshape(-1)[fresh] = 1.0
        return truth, mask, timeouts, config, cold.factors

    harness.add("als_warm_ceb", run_als_warm, setup=setup_als_warm_ceb, repeats=repeats)

    # -- explore_step_ceb --------------------------------------------------
    def setup_step_ceb():
        truth = generate_workload(CEB_SPEC, seed=11).true_latencies
        explorer = OfflineExplorer(
            ExplorationSimulator(truth).initial_matrix(),
            LimeQOPolicy(ALSPredictor(ALSConfig())),
            MatrixOracle(truth),
            ExplorationConfig(batch_size=10, seed=0),
        )
        explorer.run(max_steps=3)  # the cold solve, then warm steady state
        return explorer

    def run_step_ceb(explorer):
        predictor, clock = explorer.policy.predictor, time.perf_counter
        steps, outside = [], []
        for _ in range(5):
            # The solve the step is about to do, alone: same cells, same factors.
            began = clock()
            censored_als(
                explorer.matrix.solver_cells(),
                config=predictor.config,
                warm_start=predictor.factors,
                iterations=predictor.refresh_iterations,
            )
            solver_s = clock() - began
            began = clock()
            explorer.step()
            steps.append(clock() - began)
            outside.append(steps[-1] - solver_s)
        return {
            "step_ms": float(np.median(steps)) * 1e3,
            "outside_solver_ms": float(np.median(outside)) * 1e3,
        }

    harness.add("explore_step_ceb", run_step_ceb, setup=setup_step_ceb, repeats=repeats)

    # -- explore_200_steps -------------------------------------------------
    def setup_explore():
        return _workload(scale)

    def run_explore(workload):
        config = ExplorationConfig(batch_size=4, seed=0)
        simulator = ExplorationSimulator(workload.true_latencies, config)
        policy = LimeQOPolicy(predictor=ALSPredictor(ALSConfig(iterations=50)))
        trace = simulator.run(policy, max_steps=scale["explore_steps"])
        return {
            "steps": int(len(trace.times) - 1),
            "final_latency": float(trace.final_latency),
        }

    harness.add("explore_200_steps", run_explore, setup=setup_explore, repeats=repeats)

    # -- tcnn_predict_full -------------------------------------------------
    def setup_tcnn():
        from ..nn.trainer import TCNNTrainer

        workload = _workload(scale)
        store = workload.feature_store()
        matrix = _partial_matrix(workload)
        config = TCNNConfig(
            channels=(8,), hidden_units=(16,), max_epochs=2, batch_size=64,
            dropout=0.0,
        )
        trainer = TCNNTrainer(store, matrix.n_queries, matrix.n_hints, config)
        trainer.fit(matrix)
        trainer.predict_full(matrix)  # prime the packed full-batch cache
        return trainer, matrix

    def run_tcnn(state):
        trainer, matrix = state
        predictions = trainer.predict_full(matrix)
        return {"cells": int(predictions.size)}

    harness.add("tcnn_predict_full", run_tcnn, setup=setup_tcnn, repeats=repeats)

    # -- tcnn_fit ----------------------------------------------------------
    def setup_tcnn_fit():
        from ..nn.trainer import TCNNTrainer

        # One exploration step's training at the e2e benchmark's shape,
        # whatever the scale: JOB (113x49), its TCNN config, ~250 cells.
        workload = generate_workload(JOB_SPEC, seed=11)
        matrix = _partial_matrix(workload, fill=0.025)
        config = TCNNConfig(
            embedding_rank=5, channels=(8,), hidden_units=(16,), dropout=0.2,
            learning_rate=3e-3, batch_size=128, max_epochs=6,
            convergence_window=3, convergence_threshold=0.01,
        )
        trainer = TCNNTrainer(
            workload.feature_store(), matrix.n_queries, matrix.n_hints, config
        )
        trainer.fit(matrix)  # warm: weights, Adam moments, the packed plan space
        return trainer, matrix

    def run_tcnn_fit(state):
        trainer, matrix = state
        losses = trainer.fit(matrix)
        return {
            "epochs": len(losses),
            "cells": int(matrix.mask.sum() + matrix.censored_mask.sum()),
        }

    harness.add("tcnn_fit", run_tcnn_fit, setup=setup_tcnn_fit, repeats=repeats)

    # -- serve_batch -------------------------------------------------------
    def setup_serving(telemetry=None):
        workload = _workload(scale)
        matrix = _partial_matrix(workload, fill=0.4)
        service = ServingService(matrix, telemetry=telemetry)
        rng = np.random.default_rng(5)
        batches = [
            rng.integers(0, matrix.n_queries, size=scale["serve_batch_size"])
            for _ in range(scale["serve_batches"])
        ]
        return service, batches

    def run_serving(state):
        service, batches = state
        served = 0
        for batch in batches:
            served += service.serve_batch(batch).batch_size
        return {"served": served}

    harness.add("serve_batch", run_serving, setup=setup_serving, repeats=repeats)

    # -- serve_after_write -------------------------------------------------
    def setup_serve_after_write():
        rng = np.random.default_rng(37)
        matrix = _shard_matrix(rng)
        service = ServingService(matrix)
        snapshot = service.cache.refresh()
        n, k = matrix.shape
        every_row = np.arange(n)
        # Off the case's clock: patching *every* row is the same kernel plus
        # a scatter, so no rows/n threshold guards the patch path.
        costs = {
            "compute_us": _best_us(lambda: CacheSnapshot.compute(matrix, 0, 1.0)),
            "patch_all_rows_us": _best_us(lambda: snapshot.patched(matrix, every_row)),
        }
        ticks = [
            (
                rng.integers(0, n, 256),
                rng.integers(0, k, 256),
                rng.uniform(0.5, 20.0, 256),
                rng.integers(0, n, 256),
            )
            for _ in range(scale["serve_batches"])
        ]
        return service, ticks, costs

    def run_serve_after_write(state):
        service, ticks, costs = state
        patched = service.recorder.metrics.cache_patched_rows
        before = patched.value
        for queries, hints, latencies, arrivals in ticks:
            service.observe_batch(queries, hints, latencies, refresh=False)
            service.serve_batch(arrivals)
        return {"patched_rows_per_write": (patched.value - before) / len(ticks), **costs}

    harness.add(
        "serve_after_write",
        run_serve_after_write,
        setup=setup_serve_after_write,
        repeats=repeats,
    )

    # -- telemetry_overhead ------------------------------------------------
    def setup_telemetry_overhead():
        from ..telemetry import Telemetry

        return setup_serving(Telemetry.enabled())

    def run_telemetry_overhead(state):
        # The same timed region as serve_batch: any extra cost is the
        # instrumentation tax.  (Registry reads stay out of the loop.)
        return {**run_serving(state), "enabled": state[0].telemetry is not None}

    harness.add(
        "telemetry_overhead",
        run_telemetry_overhead,
        setup=setup_telemetry_overhead,
        repeats=repeats,
    )

    # -- ingress_serve -----------------------------------------------------
    def setup_ingress():
        workload = _workload(scale)
        matrix = _partial_matrix(workload, fill=0.4)
        service = ServingService(matrix)
        rng = np.random.default_rng(7)
        queries = rng.integers(
            0, matrix.n_queries, size=scale["ingress_requests"]
        ).tolist()
        return service, queries

    def run_ingress(state):
        from ..ingress import ServiceIngress

        service, queries = state
        # Capacity covers the whole burst: this case measures the
        # coalescing hot path, not admission control.
        config = IngressConfig(
            max_batch=256,
            max_wait_s=0.001,
            queue_capacity=max(256, len(queries)),
        )

        async def drive():
            async with ServiceIngress(service, config) as ingress:
                return await ingress.serve_many(queries)

        results = asyncio.run(drive())
        return {
            "served": len(results),
            "shed": sum(1 for r in results if r.shed),
        }

    harness.add("ingress_serve", run_ingress, setup=setup_ingress, repeats=repeats)

    # -- ingress_sparse ----------------------------------------------------
    def run_ingress_sparse(state):
        from ..ingress import ServiceIngress

        service, queries = state
        # A cap ~500x the round trip: if requests ever wait out the timer
        # again, this case gets hundreds of times slower, not a few percent.
        ingress = ServiceIngress(service, IngressConfig(max_batch=256, max_wait_s=0.01))
        _closed_loop(ingress, [[(q,) for q in queries[c::4]] for c in range(4)])
        stats = ingress.stats()
        return {
            "served": stats.served,
            "batches": stats.flushed_batches,
            "idle_flushes": stats.flush_reasons["idle"],
        }

    harness.add(
        "ingress_sparse", run_ingress_sparse, setup=setup_ingress, repeats=repeats
    )

    # -- ingress_dense -----------------------------------------------------
    def setup_ingress_dense():
        from ..cluster import ServingCluster
        from ..experiments.cluster import populate_cluster

        workload = _workload(scale)
        cluster = ServingCluster(n_shards=4, n_hints=scale["n_hints"])
        tenants = ["ceb", "dsb", "job"]
        for seed, tenant in enumerate(tenants):
            populate_cluster(cluster, tenant, _partial_matrix(workload, 0.4, seed))
        rng = np.random.default_rng(7)
        shape = (256, scale["ingress_requests"] // 64)  # clients x requests each
        tenant_of = rng.integers(0, len(tenants), size=shape).tolist()
        query_of = rng.integers(0, scale["n_queries"], size=shape).tolist()
        plans = [
            [(tenants[t], q) for t, q in zip(*client)]
            for client in zip(tenant_of, query_of)
        ]
        return cluster, plans

    def run_ingress_dense(state):
        from ..ingress import ClusterIngress

        cluster, plans = state
        # Background ticks stay out of the timed region.
        config = IngressConfig(
            max_batch=256, tick_interval_s=3600.0, refresh_interval_s=3600.0
        )
        ingress = ClusterIngress(cluster, config)
        real_s = _closed_loop(ingress, plans)
        null_s = _closed_loop(_NullDoor(), plans)
        requests = sum(map(len, plans))
        stats = ingress.stats()
        return {
            "served": stats.served,
            "mean_batch_size": stats.mean_batch_size,
            "harness_share": null_s / real_s,
            "harness_us_per_request": null_s / requests * 1e6,
            "product_us_per_request": (real_s - null_s) / requests * 1e6,
        }

    harness.add(
        "ingress_dense", run_ingress_dense, setup=setup_ingress_dense, repeats=repeats
    )

    # -- adapt_drift -------------------------------------------------------
    def setup_adapt():
        from ..workloads.shift import shift_latencies

        workload = _workload(scale)
        truth = workload.true_latencies
        n, k = truth.shape
        matrix = WorkloadMatrix(n, k)
        matrix.observe_batch(
            np.arange(n), np.zeros(n, dtype=np.int64), truth[:, 0]
        )
        best = truth.argmin(axis=1)
        matrix.observe_batch(np.arange(n), best, truth[np.arange(n), best])
        drifted, _ = shift_latencies(
            truth, 0.3, 1.2, np.random.default_rng(29)
        )
        return matrix.to_dict(), drifted

    def run_adapt(state):
        from ..adaptive import AdaptationController, RowOracle
        from ..config import AdaptiveConfig
        from ..serving.refresh import IncrementalALSRefresher

        payload, drifted = state
        # Rebuild pristine serving state each repeat: a response mutates
        # the matrix, and the measured path must include exactly one
        # detection + one budgeted response every time.
        matrix = WorkloadMatrix.from_dict(payload)
        service = ServingService(
            matrix, refresher=IncrementalALSRefresher(ALSConfig())
        )
        controller = AdaptationController(
            service,
            RowOracle(lambda q, h: drifted[q, h]),
            config=AdaptiveConfig(window=256, min_samples=32, cooldown_ticks=0),
        )
        service.monitor = controller
        for _ in range(2):
            decisions = service.serve_all()
            service.record_measured(
                decisions, drifted[decisions.queries, decisions.hints]
            )
        responded = controller.tick()
        # A response leaves ALS work to whoever schedules it; a lone service
        # refreshes explicitly, so the case times detect + respond + refresh.
        service.refresh_now()
        report = controller.report()
        return {
            "responded": int(responded),
            "explored": int(report.explored_cells),
            "invalidated": int(report.invalidated_rows),
        }

    harness.add("adapt_drift", run_adapt, setup=setup_adapt, repeats=repeats)

    # -- wal_append --------------------------------------------------------
    def setup_wal():
        import tempfile

        from ..durability.journal import ShardJournal

        home = tempfile.TemporaryDirectory(prefix="repro-perf-wal-")
        journal = ShardJournal(home.name)
        rng = np.random.default_rng(23)
        n, k = scale["n_queries"], scale["n_hints"]
        batches = [
            (
                rng.integers(0, n, size=64),
                rng.integers(0, k, size=64),
                rng.uniform(0.5, 20.0, size=64),
            )
            for _ in range(scale["wal_appends"])
        ]
        # The TemporaryDirectory rides along in the state so its finalizer
        # cleans the segments up when the harness lets go of it.
        return home, journal, batches

    def run_wal(state):
        _, journal, batches = state
        for queries, hints, values in batches:
            journal.log_observe(queries, hints, values)
        return {
            "records": int(journal.appended_records),
            "bytes": int(journal.appended_bytes),
        }

    harness.add("wal_append", run_wal, setup=setup_wal, repeats=repeats)

    # -- recovery_replay ---------------------------------------------------
    def setup_recovery():
        import tempfile

        from ..durability.journal import ShardJournal
        from ..durability.snapshot import matrix_to_jsonable

        home = tempfile.TemporaryDirectory(prefix="repro-perf-recover-")
        n, k = scale["n_queries"], scale["n_hints"]
        matrix = WorkloadMatrix(n, k)
        journal = ShardJournal(home.name)
        journal.log_import(matrix.to_dict())
        matrix.journal = journal
        rng = np.random.default_rng(31)
        matrix.observe_batch(
            np.arange(n), np.zeros(n, dtype=np.int64), rng.uniform(1.0, 10.0, n)
        )
        # Half the history lands before a checkpoint (folded into the
        # snapshot, segments truncated), half after (replayed record by
        # record) -- the mix a real crash sees.
        total = scale["replay_records"]
        for step in range(total):
            queries = rng.integers(0, n, size=32)
            hints = rng.integers(0, k, size=32)
            matrix.observe_batch(queries, hints, rng.uniform(0.5, 20.0, size=32))
            if step == total // 2:
                journal.checkpoint(matrix_to_jsonable(matrix.to_dict()))
        journal.close()
        return home

    def run_recovery(home):
        from ..durability.recovery import recover_journal

        journal, state = recover_journal(home.name)
        journal.close()
        return {
            "replayed": int(state.replayed_records),
            "skipped": int(state.skipped_records),
        }

    harness.add("recovery_replay", run_recovery, setup=setup_recovery, repeats=repeats)

    # -- checkpoint --------------------------------------------------------
    def setup_checkpoint():
        import tempfile

        from ..cluster.shard import ClusterShard
        from ..durability.journal import ShardJournal

        home = tempfile.TemporaryDirectory(prefix="repro-perf-checkpoint-")
        shard = ClusterShard(0, 49, journal=ShardJournal(home.name))
        shard.import_rows(_shard_matrix(np.random.default_rng(41)).to_dict())
        return home, shard

    def run_checkpoint(state):
        from ..durability.snapshot import load_snapshot

        home, shard = state
        shard.checkpoint()
        _, lsn = load_snapshot(home.name)
        return {"lsn": int(lsn), "on_disk_bytes": int(shard.journal.on_disk_bytes())}

    harness.add("checkpoint", run_checkpoint, setup=setup_checkpoint, repeats=repeats)

    return harness
