"""Durability acceptance: crash-and-rejoin chaos over the serving cluster.

Three pillars (the ISSUE 9 bar):

* **Byte-identical rejoin** -- for *every* fault point the durability
  layer can die at, a shard is crashed mid-drift-workload, the cluster
  serves degraded while it is down, and after ``restart_shard`` the
  cluster's decisions are byte-identical to an uninterrupted reference
  cluster fed the same traffic (``identical_after_recovery == 1.0``);
* **Outage invariants** -- during the outage every arrival is still
  answered (the dead shard's rows degrade to the default plan), nothing
  errors, and the cumulative never-worse-than-default guarantee holds
  through the chaos scenarios;
* **Bounded footprint** -- periodic checkpoints keep the on-disk journal
  bounded over 1,000 feedback ticks even though the appended WAL volume
  keeps growing, and journaling adds at most 85 us to a serve+observe
  tick (the paired difference, not a ratio -- see
  ``test_journal_overhead_is_bounded``).

``CHAOS_SEED`` (env) reseeds the traffic so CI can sweep several seeds.
Writes ``BENCH_durability.json`` plus ``TELEMETRY_durability.json`` -- a
full telemetry snapshot (per-stage latency histograms, WAL segment/LSN/
checkpoint gauges, which shards are DOWN) of a telemetry-enabled cluster
driven through a kill/restart cycle.
"""

import os
import shutil
import sys
import tempfile
import time

import numpy as np
import pytest
from _bench_utils import run_once, write_bench_json

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e"))
from run import YARDSTICK_REFERENCE_S, yardstick  # noqa: E402  (benchmarks/e2e/run.py)

from repro.cluster import ServingCluster
from repro.core.workload_matrix import WorkloadMatrix
from repro.durability import (
    FAULT_POINTS,
    FaultFS,
    FaultInjector,
    ShardJournal,
    recover_journal,
)
from repro.scenarios import (
    ScenarioRunner,
    kill_shard_mid_drift,
    restart_during_flash_crowd,
)
from repro.serving import ServingService

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

N_ROWS = 36
N_HINTS = 6
RESULTS = {"chaos_seed": CHAOS_SEED}

#: Fault points reached by a feedback append vs. by a checkpoint.
APPEND_POINTS = tuple(p for p in FAULT_POINTS if p.startswith("wal.append"))
CHECKPOINT_POINTS = tuple(p for p in FAULT_POINTS if p not in APPEND_POINTS)


@pytest.fixture(scope="module", autouse=True)
def _persist_results():
    yield
    path = write_bench_json("durability", RESULTS)
    print(f"\nwrote {path}")


def make_truth(seed):
    rng = np.random.default_rng([seed, 97])
    truth = rng.uniform(0.5, 20.0, size=(N_ROWS, N_HINTS))
    truth[:, 0] = rng.uniform(8.0, 20.0, size=N_ROWS)  # default is mediocre
    return truth


def build_cluster(truth, durability_dir=None, fault_fs=None):
    cluster = ServingCluster(
        3,
        N_HINTS,
        durability_dir=durability_dir,
        fault_fs=fault_fs,
        journal_sync="always",  # reach the fsync fault points
    )
    names = [f"q{i}" for i in range(N_ROWS)]
    cluster.add_tenant("web", names)
    rows = np.arange(N_ROWS)
    cluster.observe_batch("web", rows, np.zeros(N_ROWS, dtype=np.int64), truth[:, 0])
    best = truth.argmin(axis=1)
    cluster.observe_batch("web", rows, best, truth[rows, best])
    return cluster


def feedback_stream(truth, seed, ticks, size=12):
    """Decision-independent feedback: the same cells whatever was served."""
    rng = np.random.default_rng([seed, 131])
    drift = truth.copy()
    out = []
    for tick in range(ticks):
        if tick >= 2:  # the ground truth keeps drifting under the cluster
            rows = rng.integers(0, N_ROWS, size=3)
            drift[rows] *= rng.uniform(1.02, 1.15, size=(3, 1))
        cells_q = rng.integers(0, N_ROWS, size=size)
        cells_h = rng.integers(0, N_HINTS, size=size)
        out.append((cells_q, cells_h, drift[cells_q, cells_h]))
    return out


def crash_at_every_fault_point():
    """Kill a shard at each fault point; demand byte-identical rejoin."""
    per_point = {}
    stream = feedback_stream(make_truth(CHAOS_SEED), CHAOS_SEED, ticks=8)
    truth = make_truth(CHAOS_SEED)
    for point in FAULT_POINTS:
        home = tempfile.mkdtemp(prefix=f"repro-chaos-")
        try:
            injector = FaultInjector()
            subject = build_cluster(
                truth, durability_dir=home, fault_fs=FaultFS(injector)
            )
            reference = build_cluster(truth)
            for q, h, v in stream[:3]:
                subject.observe_batch("web", q, h, v)
                reference.observe_batch("web", q, h, v)

            injector.arm(point, at=1, torn_fraction=0.4)
            if point in CHECKPOINT_POINTS:
                subject.checkpoint()  # dies inside the snapshot protocol
            else:
                q, h, v = stream[3]
                subject.observe_batch("web", q, h, v)  # dies mid-append
            reference_q, reference_h, reference_v = stream[3]
            if point in CHECKPOINT_POINTS:
                # The subject never saw tick 3's feedback yet; apply it
                # now (it queues for the crashed shard, applies elsewhere).
                subject.observe_batch("web", reference_q, reference_h, reference_v)
            reference.observe_batch("web", reference_q, reference_h, reference_v)

            crashed = [s for s, sh in subject.shards.items() if sh.crashed]
            assert len(crashed) == 1, f"{point}: expected exactly one crash"
            assert injector.fired == [point]

            # Outage: every arrival is still answered; the dead shard's
            # rows degrade to the default plan with no error raised.
            during = subject.serve_all("web")
            degraded = np.isinf(during.expected_latency)
            assert during.batch_size == N_ROWS
            assert degraded.any() and during.used_default[degraded].all()

            for q, h, v in stream[4:6]:
                subject.observe_batch("web", q, h, v)
                reference.observe_batch("web", q, h, v)

            state = subject.restart_shard(crashed[0])
            for q, h, v in stream[6:]:
                subject.observe_batch("web", q, h, v)
                reference.observe_batch("web", q, h, v)

            after = subject.serve_all("web")
            want = reference.serve_all("web")
            identical = (
                np.array_equal(after.queries, want.queries)
                and np.array_equal(after.hints, want.hints)
                and np.array_equal(after.used_default, want.used_default)
                and after.expected_latency.tobytes()
                == want.expected_latency.tobytes()
            )
            stats = subject.stats()
            per_point[point] = {
                "identical": float(identical),
                "crashed_shard": float(crashed[0]),
                "degraded_decisions": float(stats.degraded_decisions),
                "queued_feedback": float(stats.queued_feedback),
                "replayed_feedback": float(stats.replayed_feedback),
                "replayed_records": float(state.replayed_records),
                "snapshot_lsn": float(state.snapshot_lsn),
            }
            subject.close()
            reference.close()
        finally:
            shutil.rmtree(home, ignore_errors=True)
    identical_after_recovery = float(
        np.mean([row["identical"] for row in per_point.values()])
    )
    return {
        "fault_points": float(len(per_point)),
        "identical_after_recovery": identical_after_recovery,
        "per_point": per_point,
    }


def test_crash_at_every_fault_point(benchmark):
    result = run_once(benchmark, crash_at_every_fault_point)
    RESULTS["fault_sweep"] = result
    print(
        f"\n=== Fault-point sweep (seed {CHAOS_SEED}) ===\n"
        f"{int(result['fault_points'])} fault points, "
        f"identical_after_recovery={result['identical_after_recovery']:.2f}"
    )
    for point, row in result["per_point"].items():
        print(
            f"  {point:<28} identical={row['identical']:.0f} "
            f"queued={row['queued_feedback']:.0f} "
            f"replayed_wal={row['replayed_records']:.0f}"
        )
    assert result["fault_points"] == len(FAULT_POINTS)
    assert result["identical_after_recovery"] == 1.0


def checkpoint_bounds_journal():
    """1,000 feedback ticks with periodic checkpoints: bounded footprint."""
    home = tempfile.mkdtemp(prefix="repro-growth-")
    try:
        rng = np.random.default_rng([CHAOS_SEED, 7])
        journal = ShardJournal(home)
        matrix = WorkloadMatrix(64, N_HINTS)
        service = ServingService(matrix, journal=journal)
        max_bytes = 0
        for tick in range(1000):
            q = rng.integers(0, 64, size=8)
            h = rng.integers(0, N_HINTS, size=8)
            service.observe_batch(q, h, rng.uniform(0.5, 20.0, size=8))
            if (tick + 1) % 100 == 0:
                journal.checkpoint(matrix.to_dict())
            max_bytes = max(max_bytes, journal.on_disk_bytes())
        appended = journal.appended_bytes
        journal.crash()
        _, state = recover_journal(home)
        got, want = state.matrix.to_dict(), matrix.to_dict()
        identical = float(
            all(
                np.array_equal(got[key], want[key])
                for key in ("values", "observed", "censored", "timeouts")
            )
        )
        return {
            "ticks": 1000.0,
            "appended_bytes": float(appended),
            "max_on_disk_bytes": float(max_bytes),
            "bound_ratio": appended / max_bytes,
            "checkpoints": float(journal.checkpoints),
            "recovered_identical": identical,
        }
    finally:
        shutil.rmtree(home, ignore_errors=True)


def test_checkpoint_bounds_journal_size(benchmark):
    result = run_once(benchmark, checkpoint_bounds_journal)
    RESULTS["growth"] = result
    print(
        f"\n=== Journal growth over {result['ticks']:.0f} ticks ===\n"
        f"appended {result['appended_bytes']:,.0f} B total, "
        f"peak on disk {result['max_on_disk_bytes']:,.0f} B "
        f"({result['bound_ratio']:.1f}x bound, "
        f"{result['checkpoints']:.0f} checkpoints)"
    )
    assert result["recovered_identical"] == 1.0
    # Checkpoint truncation must keep the directory well below the total
    # appended volume -- the log is bounded, not ever-growing.
    assert result["bound_ratio"] >= 3.0


#: What one journaled append may add to a serve+observe tick.  Measured
#: +27-38 us while the shared box is quiet and +38-74 us through its slow
#: phases (27 runs, seeds 0-2, median 45); the commit before row patching
#: added +62-150 us in the same sessions (median 89), so the bound has 2-3x
#: headroom over a quiet run and still sits below what used to be normal.
MAX_ADDED_US_PER_TICK = 85.0
TICKS_PER_BLOCK = 40


def journal_overhead():
    """Serve+observe tick cost, journaled vs. plain (medians over pairs)."""
    n, k = 2000, 16
    rng = np.random.default_rng([CHAOS_SEED, 19])
    truth = rng.uniform(0.5, 20.0, size=(n, k))

    def build(journal):
        matrix = WorkloadMatrix(n, k)
        rows = np.arange(n)
        matrix.observe_batch(rows, np.zeros(n, dtype=np.int64), truth[:, 0])
        return ServingService(matrix, journal=journal)

    def block(service, tick_rng):
        start = time.perf_counter()
        for _ in range(TICKS_PER_BLOCK):
            arrivals = tick_rng.integers(0, n, size=1024)
            service.serve_batch(arrivals)
            q = tick_rng.integers(0, n, size=64)
            h = tick_rng.integers(0, k, size=64)
            service.observe_batch(q, h, truth[q, h])
        return time.perf_counter() - start

    plain = build(None)
    home = tempfile.mkdtemp(prefix="repro-overhead-")
    try:
        journaled = build(ShardJournal(home))
        # Time the two services in back-to-back pairs (alternating order)
        # and take medians *over pairs*: each pair sees the same machine
        # weather, so drift in CPU budget cancels instead of landing on
        # whichever side happened to run during a stall.
        rng_p = np.random.default_rng([CHAOS_SEED, 3])
        rng_j = np.random.default_rng([CHAOS_SEED, 3])
        block(plain, rng_p)
        block(journaled, rng_j)
        # A neighbour slows this VM by 1.3-2x for seconds at a time (plain
        # 3.4 -> 6.8 ms per block, +45 -> +106 us: both sides of the
        # difference scale).  The e2e benchmark's yardstick, sampled among
        # the pairs, says how fast the machine was while they ran.
        speeds = [yardstick()]
        plain_times = []
        journaled_times = []
        for i in range(16):
            if i % 2 == 0:
                p = block(plain, rng_p)
                j = block(journaled, rng_j)
            else:
                j = block(journaled, rng_j)
                p = block(plain, rng_p)
            plain_times.append(p)
            journaled_times.append(j)
            if i % 4 == 3:
                speeds.append(yardstick())
        slowdown = float(np.median(speeds)) / YARDSTICK_REFERENCE_S
        pairs = list(zip(plain_times, journaled_times))
        plain_s = float(np.median(plain_times))
        journaled_s = float(np.median(journaled_times))
        ratio = float(np.median([j / p for p, j in pairs]))
        added_us = float(np.median([j - p for p, j in pairs])) / TICKS_PER_BLOCK * 1e6
        appended = journaled.journal.appended_records
        journaled.journal.close()
    finally:
        shutil.rmtree(home, ignore_errors=True)
    return {
        "plain_s": plain_s,
        "journaled_s": journaled_s,
        "overhead_ratio": ratio,
        "raw_added_us_per_tick": added_us,
        "machine_slowdown": slowdown,
        "added_us_per_tick": added_us / slowdown,
        "journaled_records": float(appended),
    }


def test_journal_overhead_is_bounded(benchmark):
    """Durability may add at most ``MAX_ADDED_US_PER_TICK`` to a tick.

    The gate is the median *paired difference* per journaled tick, not
    the journaled / plain ratio it used to be (<= 1.3): a ratio measures
    the journal against whatever else the tick costs, and when row
    patching cut the plain tick from ~400-500 us to ~90-140 us the ratio
    *rose* (1.08-1.27 -> 1.30-1.44 on this box) while the cost of
    journaling *fell* (median +89 -> +45 us per tick: the append itself
    did not change, it just no longer runs on caches a whole-matrix
    rebuild has emptied).  The ratio is still reported, with both bases.

    The difference is gated at reference speed (the e2e benchmark's
    ``YARDSTICK_REFERENCE_S``): raw, it failed about one run in five on
    untouched code, whenever the box was in a slow phase.  Raw and rescaled
    are both printed.
    """
    result = run_once(benchmark, journal_overhead)
    RESULTS["overhead"] = result
    print(
        f"\n=== Journal overhead ===\n"
        f"plain {result['plain_s'] * 1e3:.1f} ms vs journaled "
        f"{result['journaled_s'] * 1e3:.1f} ms per {TICKS_PER_BLOCK}-tick block "
        f"-> +{result['raw_added_us_per_tick']:.1f} us per tick raw, "
        f"+{result['added_us_per_tick']:.1f} at reference speed "
        f"(bound {MAX_ADDED_US_PER_TICK:.0f}; yardstick {result['machine_slowdown']:.2f}x "
        f"of {YARDSTICK_REFERENCE_S * 1e3:.1f} ms), "
        f"{result['overhead_ratio']:.2f}x of {result['plain_s'] * 1e3:.1f} ms "
        f"({result['journaled_records']:.0f} records appended)"
    )
    assert result["added_us_per_tick"] <= MAX_ADDED_US_PER_TICK


def telemetry_snapshot_under_chaos():
    """Drive a telemetry-enabled durable cluster through a kill/restart
    cycle and export the full observability snapshot as a CI artifact."""
    from repro.telemetry import Telemetry, collect_snapshot, write_telemetry_json

    home = tempfile.mkdtemp(prefix="repro-chaos-tel-")
    try:
        telemetry = Telemetry()
        truth = make_truth(CHAOS_SEED)
        cluster = ServingCluster(
            3, N_HINTS, durability_dir=home, telemetry=telemetry
        )
        names = [f"q{i}" for i in range(N_ROWS)]
        cluster.add_tenant("web", names)
        rows = np.arange(N_ROWS)
        cluster.observe_batch(
            "web", rows, np.zeros(N_ROWS, dtype=np.int64), truth[:, 0]
        )
        stream = feedback_stream(truth, CHAOS_SEED, ticks=8)
        for q, h, v in stream[:4]:
            cluster.serve_all("web")
            cluster.observe_batch("web", q, h, v)
        victim = next(iter(cluster.shards))
        cluster.kill_shard(victim)
        cluster.serve_all("web")  # degraded answers while the shard is down
        cluster.restart_shard(victim)
        for q, h, v in stream[4:]:
            cluster.serve_all("web")
            cluster.observe_batch("web", q, h, v)
        cluster.checkpoint()

        snapshot = collect_snapshot(telemetry, cluster=cluster)
        path = write_telemetry_json("durability", snapshot)
        payload = snapshot.as_dict()
        stages = payload["metrics"]["repro_stage_seconds"]["children"]
        wal = payload["wal"]
        cluster.close()
        return {
            "path": path,
            "stages": sorted(stages),
            "stage_observations": float(
                sum(s["count"] for s in stages.values())
            ),
            "wal_shards": float(len(wal)),
            "checkpoints": float(
                sum(s["checkpoints"] for s in wal.values())
            ),
            "min_segment_count": float(
                min(s["segment_count"] for s in wal.values())
            ),
            "down_shards": float(payload["health"]["n_down"]),
        }
    finally:
        shutil.rmtree(home, ignore_errors=True)


def test_telemetry_snapshot_artifact(benchmark):
    result = run_once(benchmark, telemetry_snapshot_under_chaos)
    RESULTS["telemetry"] = {
        k: v for k, v in result.items() if k != "path"
    }
    print(
        f"\n=== Telemetry snapshot ===\n"
        f"wrote {result['path']}\n"
        f"stages {result['stages']} "
        f"({result['stage_observations']:.0f} observations), "
        f"{result['checkpoints']:.0f} checkpoints across "
        f"{result['wal_shards']:.0f} shard journals"
    )
    # Per-stage latency histograms cover the append and observe paths
    # even without an ingress in front (no open trace required).
    assert "wal.append" in result["stages"]
    assert "observe" in result["stages"]
    assert result["stage_observations"] > 0
    # WAL gauges: every shard journal reports segments and the checkpoint.
    assert result["wal_shards"] == 3.0
    assert result["min_segment_count"] >= 1.0
    assert result["checkpoints"] >= 3.0
    assert result["down_shards"] == 0.0


def run_chaos_scenario(build):
    spec = build(seed=CHAOS_SEED)
    trace = ScenarioRunner(
        spec, target="cluster", adaptive=True, n_shards=3
    ).run()
    summary = trace.summary()
    summary["every_tick_served"] = float(
        (trace.arrivals > 0).all() and np.isfinite(trace.served).all()
    )
    summary["never_worse_cumulative"] = float(
        trace.served.sum() <= trace.default.sum() * 1.0 + 1e-9
    )
    if trace.adaptive_report is not None:
        summary["responses"] = trace.adaptive_report.get("responses", 0.0)
    return spec.name, summary


def test_chaos_scenarios_hold_the_guarantee(benchmark):
    def both():
        return dict(
            run_chaos_scenario(build)
            for build in (kill_shard_mid_drift, restart_during_flash_crowd)
        )

    result = run_once(benchmark, both)
    RESULTS["scenarios"] = result
    print(f"\n=== Chaos scenarios (seed {CHAOS_SEED}) ===")
    for name, summary in result.items():
        print(
            f"  {name:<28} improvement={summary['mean_improvement']:.1%} "
            f"served_ok={summary['every_tick_served']:.0f} "
            f"never_worse={summary['never_worse_cumulative']:.0f}"
        )
    for name, summary in result.items():
        assert summary["every_tick_served"] == 1.0, name
        assert summary["never_worse_cumulative"] == 1.0, name
        assert summary["mean_improvement"] > 0.0, name
