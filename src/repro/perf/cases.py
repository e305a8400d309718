"""Pieces the end-to-end benchmark cannot isolate, as perf cases.

``benchmarks/e2e/`` times every whole path at paper shape.  A case lives here
only when it needs a control *inside one process* that e2e spans cannot give,
and then it computes its ratio itself (``docs/testing.md`` has the table of
what measures what):

* ``als_warm_ceb``   -- one warm censored-ALS refresh at the paper's CEB shape
                        (3133x49, ~3% observed) on frozen inputs: the same
                        cells and factors every repeat, where an e2e run's
                        solves follow whatever the policy explored,
* ``explore_step_ceb`` -- five warm Algorithm 1 steps at that shape (hand-off,
                        solve, Eq. 6, a 10-cell write), each after the same
                        solve from the factor pair alone
                        (``factor_pair_solve_ms``, one product more than the
                        step's own): ``outside_solver_ms`` is what a step
                        costs around its predictor's time (medians of the five),
* ``tcnn_fit``       -- one warm TCNN ``fit`` at the e2e benchmark's shape
                        (JOB 113x49, its TCNN config) on a frozen ~250-cell
                        training set: the training half of an
                        ``explore_tcnn`` step without the set growing,
* ``tcnn_predict_full`` -- one ``predict_full`` at that shape on frozen
                        weights: the plan-space pass, beside the generic
                        ``forward`` over the same 5,537 cells
                        (``predict_cells``) in the same process, and the
                        bytes its kept workspace holds (``workspace_bytes``),
* ``serve_after_write`` -- a 256-cell feedback batch then a 256-query
                        ``serve_batch`` on one e2e-sized shard (800x49):
                        what a write costs the next reader (a row patch),
                        beside a full ``compute`` and a patch of every row,
* ``telemetry_overhead`` -- one serving loop with telemetry off and on, in
                        alternation: ``overhead_share`` is the
                        instrumentation tax (reported, not gated),
* ``ingress_dense``  -- the front door full: 256 closed-loop clients over
                        a 3-tenant, 4-shard ``ClusterIngress`` (every
                        batch leaves on size), then the same clients
                        against a door with nothing behind it, so the
                        report splits a request into the asyncio
                        harness's share and the product's microseconds,
* ``mixed_flush``    -- what the cluster charges a coalesced flush: sync
                        ``serve_mixed`` calls of 4 and of 256 arrivals on
                        that cluster (``flush_4_us`` / ``flush_256_us``),
                        beside the same arrivals already split by tenant
                        going through the array door ``serve_batch``; and
                        the 4-arrival flush again with a write landing
                        before each one (``flush_4_after_write_us``).
"""

from __future__ import annotations

import asyncio
import time
import timeit

import numpy as np

from ..config import ALSConfig, ExplorationConfig, IngressConfig, TCNNConfig
from ..core.als import censored_als
from ..core.explorer import MatrixOracle, OfflineExplorer
from ..core.plan_cache import CacheSnapshot
from ..core.policies import LimeQOPolicy
from ..core.predictors import WARM_REFRESH_SWEEPS, ALSPredictor
from ..core.simulation import ExplorationSimulator
from ..core.workload_matrix import WorkloadMatrix
from ..serving.service import ServingService
from ..workloads.matrices import generate_workload
from ..workloads.spec import CEB_SPEC, JOB_SPEC, WorkloadSpec
from .harness import PerfHarness

#: The small shape ``telemetry_overhead`` and ``ingress_dense`` serve from.
N_QUERIES, N_HINTS = 60, 16
#: ``serve_batch`` calls per timed loop, and arrivals per call.
SERVE_BATCHES, SERVE_BATCH_SIZE = 50, 512
#: Requests each of ``ingress_dense``'s 256 clients sends.
REQUESTS_PER_CLIENT = 31
#: Off/on pairs ``telemetry_overhead`` times per run.
OVERHEAD_ROUNDS = 50


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


def _workload():
    spec = WorkloadSpec(
        name=f"perf-{N_QUERIES}x{N_HINTS}",
        n_queries=N_QUERIES,
        n_hints=N_HINTS,
        default_total=10.0 * N_QUERIES,
        optimal_total=3.5 * N_QUERIES,
        rank=5,
    )
    return generate_workload(spec, seed=11)


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


def _best_us(run) -> float:
    return round(min(timeit.repeat(run, number=1, repeat=30)) * 1e6, 1)


def build_suite() -> PerfHarness:
    """Assemble the suite."""
    harness = PerfHarness()

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

    def run_als_warm(state):
        observed, mask, timeouts, config, factors = state
        result = censored_als(
            observed, mask, timeouts, config,
            warm_start=factors, iterations=WARM_REFRESH_SWEEPS,
        )
        return {"iterations": int(len(result.objective_trace))}

    harness.add("als_warm_ceb", run_als_warm, setup=setup_als_warm_ceb)

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
        steps, outside, alone = [], [], []
        for _ in range(5):
            # The solve the step is about to do, from the factor pair alone:
            # same cells, same factors, but the first product recomputed.
            began = clock()
            censored_als(
                explorer.matrix.solver_cells(),
                config=predictor.config,
                warm_start=predictor.factors,
                iterations=WARM_REFRESH_SWEEPS,
            )
            alone.append(clock() - began)
            predicted_s = predictor.overhead_seconds
            began = clock()
            explorer.step()
            steps.append(clock() - began)
            outside.append(steps[-1] - (predictor.overhead_seconds - predicted_s))
        return {
            "step_ms": float(np.median(steps)) * 1e3,
            "outside_solver_ms": float(np.median(outside)) * 1e3,
            "factor_pair_solve_ms": float(np.median(alone)) * 1e3,
        }

    harness.add("explore_step_ceb", run_step_ceb, setup=setup_step_ceb)

    # -- tcnn_fit ----------------------------------------------------------
    def setup_tcnn_fit():
        from ..nn.trainer import TCNNTrainer

        # One exploration step's training at the e2e benchmark's shape:
        # JOB (113x49), its TCNN config, ~250 cells.
        workload = generate_workload(JOB_SPEC, seed=11)
        matrix = _partial_matrix(workload, fill=0.025)
        config = TCNNConfig(
            channels=(8,), hidden_units=(16,), dropout=0.2, learning_rate=3e-3,
            batch_size=128, max_epochs=6, convergence_window=3,
        )
        trainer = TCNNTrainer(
            workload.feature_store(), matrix.n_queries, matrix.n_hints, config
        )
        trainer.fit(matrix)  # warm: weights, Adam moments, the packed plan space
        trainer.predict_full(matrix)  # ...and the inference workspace
        return trainer, matrix

    def run_tcnn_fit(state):
        trainer, matrix = state
        losses = trainer.fit(matrix)
        return {
            "epochs": len(losses),
            "cells": int(matrix.mask.sum() + matrix.censored_mask.sum()),
        }

    harness.add("tcnn_fit", run_tcnn_fit, setup=setup_tcnn_fit)

    # -- tcnn_predict_full -------------------------------------------------
    def setup_tcnn_predict_full():
        trainer, matrix = setup_tcnn_fit()
        n, k = matrix.shape
        cells = np.stack(np.divmod(np.arange(n * k), k), axis=1)
        # Off the case's clock: the generic forward over the same cells.
        generic_us = _best_us(lambda: trainer.predict_cells(cells))
        return trainer, matrix, generic_us

    def run_tcnn_predict_full(state):
        trainer, matrix, generic_us = state
        predictions = trainer.predict_full(matrix)
        kept = sum(buffer.nbytes for buffer in trainer._workspace.values())
        return {"cells": int(predictions.size), "predict_cells_us": generic_us,
                "workspace_bytes": kept}

    harness.add(
        "tcnn_predict_full", run_tcnn_predict_full, setup=setup_tcnn_predict_full
    )

    # -- serve_after_write -------------------------------------------------
    def setup_serve_after_write():
        # One e2e-benchmark shard: 800x49, the default column plus ~10% observed.
        rng = np.random.default_rng(37)
        n, k = 800, 49
        observed = rng.random((n, k)) < 0.1
        observed[:, 0] = True
        rows, cols = np.nonzero(observed)
        matrix = WorkloadMatrix(n, k)
        matrix.observe_batch(rows, cols, rng.uniform(0.5, 20.0, rows.size))
        service = ServingService(matrix)
        snapshot = service.cache.refresh()
        every_row = np.arange(n)
        # Off the case's clock: patching *every* row is the same kernel plus
        # a scatter, so no rows/n threshold guards the patch path.
        costs = {
            "compute_us": _best_us(lambda: CacheSnapshot.compute(matrix)),
            "patch_all_rows_us": _best_us(lambda: snapshot.patched(matrix, every_row)),
        }
        ticks = [
            (
                rng.integers(0, n, 256),
                rng.integers(0, k, 256),
                rng.uniform(0.5, 20.0, 256),
                rng.integers(0, n, 256),
            )
            for _ in range(SERVE_BATCHES)
        ]
        return service, ticks, costs

    def run_serve_after_write(state):
        service, ticks, costs = state
        patched = service.recorder.metrics.cache_patched_rows
        before = patched.value
        for queries, hints, latencies, arrivals in ticks:
            service.observe_batch(queries, hints, latencies)
            service.serve_batch(arrivals)
        return {"patched_rows_per_write": (patched.value - before) / len(ticks), **costs}

    harness.add(
        "serve_after_write", run_serve_after_write, setup=setup_serve_after_write
    )

    # -- telemetry_overhead ------------------------------------------------
    def setup_telemetry_overhead():
        from ..telemetry import Telemetry

        matrix = _partial_matrix(_workload(), fill=0.4)
        rng = np.random.default_rng(5)
        batches = [
            rng.integers(0, N_QUERIES, size=SERVE_BATCH_SIZE)
            for _ in range(SERVE_BATCHES)
        ]
        # Two services over equal matrices; only the telemetry differs.
        off = ServingService(matrix.copy())
        on = ServingService(matrix.copy(), telemetry=Telemetry())
        return off, on, batches

    def run_telemetry_overhead(state):
        off, on, batches = state
        clock = time.perf_counter
        best = {off: float("inf"), on: float("inf")}
        # Alternating puts machine drift on both sides alike; the fastest
        # loop of each is what the loop costs.  (Registry reads stay out.)
        for _ in range(OVERHEAD_ROUNDS):
            for service in (off, on):
                began = clock()
                for batch in batches:
                    service.serve_batch(batch)
                best[service] = min(best[service], clock() - began)
        off_s, on_s = best[off], best[on]
        return {
            "enabled": on.telemetry is not None and off.telemetry is None,
            "off_ms": off_s * 1e3,
            "on_ms": on_s * 1e3,
            "overhead_share": on_s / off_s - 1.0,
        }

    harness.add(
        "telemetry_overhead", run_telemetry_overhead, setup=setup_telemetry_overhead
    )

    # -- ingress_dense -----------------------------------------------------
    def setup_ingress_dense():
        from ..cluster import ServingCluster
        from ..experiments.cluster import populate_cluster

        workload = _workload()
        cluster = ServingCluster(n_shards=4, n_hints=N_HINTS)
        tenants = ["ceb", "dsb", "job"]
        for seed, tenant in enumerate(tenants):
            populate_cluster(cluster, tenant, _partial_matrix(workload, 0.4, seed))
        rng = np.random.default_rng(7)
        shape = (256, REQUESTS_PER_CLIENT)
        tenant_of = rng.integers(0, len(tenants), size=shape).tolist()
        query_of = rng.integers(0, N_QUERIES, size=shape).tolist()
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

    harness.add("ingress_dense", run_ingress_dense, setup=setup_ingress_dense)

    # -- mixed_flush -------------------------------------------------------
    def after_writes_us(cluster, writes, serve, flushes) -> float:
        """us per ``serve(flush)`` when a write lands before each (unclocked)."""
        clock, spent = time.perf_counter, 0.0
        for write, flush in zip(writes, flushes):
            cluster.observe_batch(*write)
            began = clock()
            serve(flush)
            spent += clock() - began
        return round(spent / len(writes) * 1e6, 1)

    def setup_mixed_flush():
        cluster, plans = setup_ingress_dense()
        arrivals = [request for plan in plans for request in plan]
        flushes, split, control = {}, {}, {}

        def door(parts):  # the array door over one flush, already split by tenant
            return [cluster.serve_batch(*part) for part in parts]

        for size in (4, 256):
            # As many flushes of each size as the plans hold 256-arrival ones.
            starts = range(0, REQUESTS_PER_CLIENT * size, size)
            flushes[size] = [arrivals[i : i + size] for i in starts]
            # Off the case's clock: the array door over the same arrivals,
            # their split by tenant (and the regather) not charged to it.
            split[size] = [
                [
                    (tenant, np.array([q for owner, q in flush if owner == tenant]))
                    for tenant in sorted({owner for owner, _ in flush})
                ]
                for flush in flushes[size]
            ]
            door_us = _best_us(lambda: [door(parts) for parts in split[size]])
            control[f"per_tenant_{size}_us"] = round(door_us / len(starts), 1)
        # The other regime: 8 cells of the first arrival's tenant land before
        # each 4-arrival flush, so every flush starts on patched snapshots.
        rng = np.random.default_rng(9)
        cells = lambda high: rng.integers(0, high, 8)
        writes = [
            (flush[0][0], cells(N_QUERIES), cells(N_HINTS), rng.uniform(1.0, 9.0, 8))
            for flush in flushes[4]
        ]
        control["per_tenant_4_after_write_us"] = min(
            after_writes_us(cluster, writes, door, split[4]) for _ in range(5)
        )
        return cluster, flushes, writes, control

    def run_mixed_flush(state):
        cluster, flushes, writes, control = state
        meta, clock = dict(control), time.perf_counter
        for size, batches in flushes.items():
            began = clock()
            for flush in batches:
                cluster.serve_mixed(flush)
            meta[f"flush_{size}_us"] = round((clock() - began) / len(batches) * 1e6, 1)
        meta["flush_4_after_write_us"] = after_writes_us(
            cluster, writes, cluster.serve_mixed, flushes[4]
        )
        return meta

    harness.add("mixed_flush", run_mixed_flush, setup=setup_mixed_flush)

    return harness
