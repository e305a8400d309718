"""Closed-loop load test of the asyncio ingress (request coalescing).

Four acceptance properties of the front door, exercised end-to-end:

* **Knee**: a closed-loop concurrency sweep (M clients, each awaiting its
  own requests back-to-back) traces the throughput/p99 curve -- batches
  only form once concurrency rises, so throughput must climb well past
  the single-client point before latency takes off.  The sparse end of
  the sweep must not wait out the ``max_wait_s`` deadline (p50 at 1 and 4
  clients under half of ``max_wait_s``: batches are cut when the loop
  goes quiet), and the dense end must still fill its batches.
* **Coalescing win**: the coalesced path serves the same stream at >= 5x
  the per-request throughput of one-at-a-time async serving (awaiting
  each ``serve()`` before issuing the next).
* **Identity**: decisions answered through the ingress are byte-identical
  to the synchronous batch path of the scenario engine's built-in
  (one-shard cluster) target on replayed traffic (same ``decisions_blob``).
* **Shedding**: a burst beyond ``queue_capacity`` degrades the overflow
  to default-plan answers -- no errors -- and the shed count shows up in
  both the ingress and the backend stats.
* **Telemetry**: the same stream served with telemetry *enabled* returns
  identical decisions, and the collected snapshot (per-stage latency
  histograms, trace ring, ingress/serving stats) is written out as the
  ``TELEMETRY_ingress.json`` CI artifact.

Run with ``pytest benchmarks/test_ingress_load.py --benchmark-only``.
"""

import asyncio
import time

import numpy as np
from _bench_utils import run_once, write_bench_json

from repro.config import IngressConfig
from repro.experiments.serving import explored_matrix
from repro.ingress import ClusterIngress, ServiceIngress
from repro.scenarios import ScenarioRunner
from repro.scenarios.primitives import sudden_workload_shift
from repro.scenarios.runner import _ClusterTarget
from repro.serving import ServingService
from repro.serving.batch_cache import BatchDecisions
from repro.workloads.matrices import generate_workload
from repro.workloads.spec import CEB_SPEC

N_REQUESTS = 3000
SWEEP_CLIENTS = (1, 4, 16, 64, 256)


def _service(scale=0.1, fill=0.4):
    workload = generate_workload(CEB_SPEC.scaled(scale), seed=0)
    matrix = explored_matrix(workload, observed_fraction=fill, seed=1)
    return ServingService(matrix)


def _queries(n_queries, n=N_REQUESTS, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_queries, size=n).tolist()


# -- offered-load sweep: the throughput/p99 knee ---------------------------------


def _closed_loop_point(service, queries, n_clients, config):
    """M closed-loop clients, each awaiting its own slice back-to-back."""
    per_client = [queries[i::n_clients] for i in range(n_clients)]
    latencies = []

    async def client(ingress, slice_):
        for query in slice_:
            t0 = time.perf_counter()
            decision = await ingress.serve(query)
            latencies.append(time.perf_counter() - t0)
            assert not decision.shed

    async def drive():
        async with ServiceIngress(service, config) as ingress:
            t0 = time.perf_counter()
            await asyncio.gather(
                *(client(ingress, s) for s in per_client if s)
            )
            elapsed = time.perf_counter() - t0
            return elapsed, ingress.stats()

    elapsed, stats = asyncio.run(drive())
    lat = np.asarray(latencies)
    return {
        "clients": n_clients,
        "throughput_qps": len(queries) / elapsed,
        "p50_latency_us": float(np.percentile(lat, 50) * 1e6),
        "p99_latency_us": float(np.percentile(lat, 99) * 1e6),
        "mean_batch_size": stats.mean_batch_size,
    }


SWEEP_CONFIG = IngressConfig(max_batch=256, max_wait_s=0.001, queue_capacity=4096)


def _run_sweep():
    service = _service()
    queries = _queries(service.matrix.n_queries)
    return [
        _closed_loop_point(service, queries, m, SWEEP_CONFIG)
        for m in SWEEP_CLIENTS
    ]


def test_ingress_throughput_knee(benchmark):
    points = run_once(benchmark, _run_sweep)

    print("\n=== Ingress closed-loop sweep (coalesced, max_batch=256) ===")
    print(f"{'clients':>8} {'qps':>12} {'p50 (us)':>10} {'p99 (us)':>10} {'batch':>7}")
    for p in points:
        print(
            f"{p['clients']:>8} {p['throughput_qps']:>12,.0f} "
            f"{p['p50_latency_us']:>10.1f} {p['p99_latency_us']:>10.1f} "
            f"{p['mean_batch_size']:>7.1f}"
        )

    path = write_bench_json("ingress_sweep", {"points": points})
    print(f"wrote {path}")

    by_clients = {p["clients"]: p for p in points}
    best = max(p["throughput_qps"] for p in points)
    # Closed-loop, one in flight per client: batches only form with
    # concurrency, so peak throughput must sit well above the M=1 point
    # (the knee exists) and batches must actually have coalesced there.
    assert best >= 2.0 * by_clients[1]["throughput_qps"]
    peak = max(points, key=lambda p: p["throughput_qps"])
    assert peak["clients"] > 1
    assert peak["mean_batch_size"] > 2.0
    # The floor at low occupancy is the work, not the deadline: a sparse
    # request is dispatched as soon as the loop goes quiet (1.2-1.3 ms
    # against max_wait_s = 1 ms before the quiescence probe)...
    for clients in (1, 4):
        p50_s = by_clients[clients]["p50_latency_us"] * 1e-6
        assert p50_s < SWEEP_CONFIG.max_wait_s / 2, (clients, p50_s)
    assert by_clients[4]["mean_batch_size"] == 4.0
    # ...and the probe never cuts a burst short: 3000 requests over 256
    # clients are eleven full batches and one of 184.
    assert by_clients[256]["mean_batch_size"] >= 250.0


# -- coalescing >= 5x one-at-a-time async serving --------------------------------


def _run_speedup():
    service = _service()
    queries = _queries(service.matrix.n_queries)
    results = {}

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            times.append(fn())
        return min(times)

    def coalesced_once():
        svc_cfg = IngressConfig(
            max_batch=256, max_wait_s=0.001, queue_capacity=len(queries)
        )

        async def drive():
            async with ServiceIngress(service, svc_cfg) as ingress:
                return await ingress.serve_many(queries)

        t0 = time.perf_counter()
        res = asyncio.run(drive())
        elapsed = time.perf_counter() - t0
        assert len(res) == len(queries) and not any(r.shed for r in res)
        return elapsed

    def one_at_a_time_once():
        # max_wait_s=0: every arrival is immediately due, so the serial
        # client never sits out the SLO window -- it pays exactly one
        # dispatch per request, the honest un-coalesced cost.
        svc_cfg = IngressConfig(max_batch=1, max_wait_s=0.0, queue_capacity=1)

        async def drive():
            async with ServiceIngress(service, svc_cfg) as ingress:
                return [await ingress.serve(q) for q in queries]

        t0 = time.perf_counter()
        res = asyncio.run(drive())
        elapsed = time.perf_counter() - t0
        assert len(res) == len(queries) and not any(r.shed for r in res)
        return elapsed

    coalesced = best_of(coalesced_once)
    serial = best_of(one_at_a_time_once)
    results["coalesced_qps"] = len(queries) / coalesced
    results["one_at_a_time_qps"] = len(queries) / serial
    results["speedup"] = serial / coalesced
    results["requests"] = len(queries)
    return results


def test_ingress_coalescing_speedup(benchmark):
    result = run_once(benchmark, _run_speedup)
    print("\n=== Coalesced vs one-at-a-time async serving ===")
    print(
        f"coalesced      {result['coalesced_qps']:>12,.0f} qps\n"
        f"one-at-a-time  {result['one_at_a_time_qps']:>12,.0f} qps\n"
        f"speedup        {result['speedup']:.1f}x over {result['requests']} requests"
    )
    path = write_bench_json("ingress_speedup", result)
    print(f"wrote {path}")
    assert result["speedup"] >= 5.0


# -- byte-identity with sync serving on scenario traffic -------------------------


class _IngressClusterTarget(_ClusterTarget):
    """The built-in scenario target (one shard) whose serve() path runs
    through the asyncio ingress.

    Everything else (registration, observation, refresh cadence) is
    inherited unchanged, so any divergence in the trace is the ingress's
    doing.  Background tickers are effectively disabled (hour-long
    intervals): the identity claim is about the request path, and refresh
    timing is the scenario driver's job in both runs.
    """

    def __init__(self, worlds, n_hints):
        super().__init__(worlds, n_hints, n_shards=1)
        self._loop = asyncio.new_event_loop()
        self._ingress = None
        self._config = IngressConfig(
            max_batch=64,
            max_wait_s=0.0005,
            queue_capacity=8192,
            tick_interval_s=3600.0,
            refresh_interval_s=3600.0,
        )

    def _ensure_ingress(self):
        if self._ingress is None:
            self._ingress = ClusterIngress(self.cluster, self._config)
            self._loop.run_until_complete(self._ingress.start())
        return self._ingress

    def serve(self, tenant, local_queries):
        ingress = self._ensure_ingress()
        rows = np.asarray(local_queries, dtype=np.int64)
        answers = self._loop.run_until_complete(
            ingress.serve_many([(tenant, q) for q in rows.tolist()])
        )
        assert not any(a.shed for a in answers)
        return BatchDecisions(
            queries=rows,
            hints=np.asarray([a.hint for a in answers], dtype=np.int64),
            used_default=np.asarray([a.used_default for a in answers], dtype=bool),
            expected_latency=np.asarray(
                [a.expected_latency for a in answers], dtype=float
            ),
        )

    def close(self):
        if self._ingress is not None:
            self._loop.run_until_complete(self._ingress.stop())
        self._loop.close()


def _run_identity():
    spec = sudden_workload_shift(seed=3)
    sync_trace = ScenarioRunner(spec, adaptive=False).run()

    targets = []

    def factory(worlds):
        target = _IngressClusterTarget(worlds, spec.tenants[0].n_hints)
        targets.append(target)
        return target

    ingress_trace = ScenarioRunner(spec, target=factory, adaptive=False).run()
    for target in targets:
        target.close()

    return {
        "scenario": spec.name,
        "decisions": float(sync_trace.arrivals.sum()),
        "identical": float(
            sync_trace.decisions_blob() == ingress_trace.decisions_blob()
        ),
        "sync_served_latency": sync_trace.summary()["served_latency"],
        "ingress_served_latency": ingress_trace.summary()["served_latency"],
    }


def test_ingress_decisions_match_sync_path(benchmark):
    result = run_once(benchmark, _run_identity)
    print(
        f"\n=== Ingress vs sync decisions on '{result['scenario']}' ===\n"
        f"{result['decisions']:.0f} decisions, "
        f"identical={bool(result['identical'])}"
    )
    path = write_bench_json("ingress_identity", result)
    print(f"wrote {path}")
    assert result["identical"] == 1.0, "ingress decisions diverged from sync serving"
    assert result["sync_served_latency"] == result["ingress_served_latency"]


# -- telemetry on the request path: identical decisions + snapshot artifact ------


def _run_telemetry():
    from repro.telemetry import Telemetry, collect_snapshot, write_telemetry_json

    plain = _service()
    queries = _queries(plain.matrix.n_queries)
    config = IngressConfig(
        max_batch=256, max_wait_s=0.001, queue_capacity=len(queries)
    )
    telemetry = Telemetry()
    traced = ServingService(
        explored_matrix(
            generate_workload(CEB_SPEC.scaled(0.1), seed=0),
            observed_fraction=0.4,
            seed=1,
        ),
        telemetry=telemetry,
    )

    async def drive(service, snapshot_with=None):
        async with ServiceIngress(service, config) as ingress:
            answers = await ingress.serve_many(queries)
            snap = None
            if snapshot_with is not None:
                # Collected while the ingress is still up so the snapshot
                # includes its queue/batch stats alongside the registry.
                snap = collect_snapshot(
                    snapshot_with, service=service, ingress=ingress
                )
            return answers, snap

    plain_answers, _ = asyncio.run(drive(plain))
    traced_answers, snapshot = asyncio.run(drive(traced, snapshot_with=telemetry))
    identical = float(
        len(plain_answers) == len(traced_answers)
        and all(
            a.hint == b.hint
            and a.used_default == b.used_default
            and a.expected_latency == b.expected_latency
            for a, b in zip(plain_answers, traced_answers)
        )
    )
    path = write_telemetry_json("ingress", snapshot)
    payload = snapshot.as_dict()
    stages = payload["metrics"]["repro_stage_seconds"]["children"]
    return {
        "path": path,
        "requests": len(queries),
        "identical": identical,
        "stages": sorted(stages),
        "stage_observations": float(sum(s["count"] for s in stages.values())),
        "finished_traces": float(payload["traces"]["finished_traces"]),
        "ring_traces": float(len(payload["traces"]["ring"])),
        "served_decisions": float(payload["serving"]["decisions"]),
    }


def test_ingress_telemetry_identity_and_artifact(benchmark):
    result = run_once(benchmark, _run_telemetry)
    print(
        f"\n=== Telemetry-enabled ingress ===\n"
        f"wrote {result['path']}\n"
        f"{result['requests']} requests, identical={bool(result['identical'])}, "
        f"stages {result['stages']} "
        f"({result['stage_observations']:.0f} observations, "
        f"{result['finished_traces']:.0f} traces)"
    )
    # Instrumentation must not change a single decision.
    assert result["identical"] == 1.0
    # Every pipeline stage the ingress path crosses shows up in the
    # per-stage histograms, and the trace ring retained recent requests.
    for stage in ("ingress.queue_wait", "ingress.flush", "shard.serve", "cache.lookup"):
        assert stage in result["stages"], result["stages"]
    assert result["stage_observations"] > 0
    assert result["finished_traces"] > 0
    assert result["ring_traces"] > 0
    assert result["served_decisions"] == result["requests"]


# -- overload: shed to default plans, never error --------------------------------


def _run_overload():
    service = _service()
    n = 2000
    capacity = 128
    queries = _queries(service.matrix.n_queries, n=n, seed=11)
    config = IngressConfig(
        max_batch=64, max_wait_s=0.001, queue_capacity=capacity
    )

    async def drive():
        async with ServiceIngress(service, config) as ingress:
            answers = await ingress.serve_many(queries)
            return answers, ingress.stats()

    answers, stats = asyncio.run(drive())
    shed = [a for a in answers if a.shed]
    return {
        "requests": n,
        "queue_capacity": capacity,
        "answered": len(answers),
        "shed": len(shed),
        "shed_all_default": float(all(a.used_default for a in shed)),
        "ingress_stats_shed": stats.shed,
        "service_stats_shed": service.stats().shed,
        "max_queue_depth": stats.max_queue_depth,
    }


def test_ingress_overload_sheds_to_default_plans(benchmark):
    result = run_once(benchmark, _run_overload)
    print(
        f"\n=== Overload: {result['requests']} requests vs "
        f"capacity {result['queue_capacity']} ===\n"
        f"answered {result['answered']}, shed {result['shed']} "
        f"(max depth {result['max_queue_depth']})"
    )
    path = write_bench_json("ingress_overload", result)
    print(f"wrote {path}")
    # Every arrival is answered; overflow degrades to the default plan
    # (the no-regression anchor) and is counted, never errored.
    assert result["answered"] == result["requests"]
    assert result["shed"] > 0
    assert result["shed_all_default"] == 1.0
    assert result["ingress_stats_shed"] == result["shed"]
    assert result["service_stats_shed"] == result["shed"]
    assert result["max_queue_depth"] <= result["queue_capacity"]
