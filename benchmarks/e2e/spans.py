"""Span wrappers around the program's layer boundaries, and the per-layer
metrics computed from them.

The span table is declarative and resolved when a trace starts: a target a
later refactor renamed is listed under ``absent`` and its metrics read
``None`` instead of raising.  Wrappers are installed for the traced round
only and removed in a ``finally``; untraced rounds run the unmodified
program.  Everything runs on one thread (asyncio included, and no wrapped
callable awaits), so a plain stack gives each span its parent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: (layer, module that holds the name, dotted attribute).  A function is
#: wrapped where its *caller* looks it up, so ``split_batch`` and
#: ``recover_journal`` are patched in the importing module.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.als", "repro.core.predictors", "ALSPredictor.predict"),
    ("core.als", "repro.core.matrix_completion", "ALSCompleter.complete_result"),
    ("core.policies", "repro.core.policies", "LimeQOPolicy.select"),
    ("core.explorer", "repro.core.explorer", "OfflineExplorer.step"),
    ("core.explorer", "repro.core.explorer", "MatrixOracle.execute_many"),
    ("core.workload_matrix", "repro.core.workload_matrix", "WorkloadMatrix.observe_batch"),
    ("core.workload_matrix", "repro.core.workload_matrix", "WorkloadMatrix.observe_censored"),
    ("nn.trainer", "repro.nn.trainer", "TCNNTrainer.fit"),
    ("nn.trainer", "repro.nn.trainer", "TCNNTrainer.predict_full"),
    ("cluster.cluster", "repro.cluster.cluster", "ServingCluster.serve_mixed"),
    ("cluster.cluster", "repro.cluster.cluster", "ServingCluster.serve_batch"),
    ("cluster.cluster", "repro.cluster.cluster", "ServingCluster.observe_batch"),
    ("cluster.cluster", "repro.cluster.cluster", "ServingCluster.checkpoint"),
    ("cluster.cluster", "repro.cluster.cluster", "ServingCluster.kill_shard"),
    ("cluster.cluster", "repro.cluster.cluster", "ServingCluster.restart_shard"),
    ("cluster.router", "repro.cluster.cluster", "split_batch"),
    ("cluster.shard", "repro.cluster.shard", "ClusterShard.serve_local"),
    ("cluster.shard", "repro.cluster.shard", "ClusterShard.observe_local"),
    ("serving.batch_cache", "repro.core.plan_cache", "CacheSnapshot.compute"),
    ("serving.refresh", "repro.serving.refresh", "IncrementalALSRefresher.refresh"),
    ("cluster.scheduler", "repro.cluster.scheduler", "RefreshScheduler.tick"),
    ("durability.journal", "repro.durability.journal", "ShardJournal.log_observe"),
    ("durability.journal", "repro.durability.journal", "ShardJournal.checkpoint"),
    ("durability.recovery", "repro.cluster.shard", "recover_journal"),
    ("durability.recovery", "repro.durability.journal", "load_snapshot"),
    ("adaptive.controller", "repro.adaptive.cluster", "ClusterAdaptationController.record"),
    ("adaptive.controller", "repro.adaptive.cluster", "ClusterAdaptationController.tick"),
    ("adaptive.controller", "repro.adaptive.controller", "AdaptationController.respond"),
    ("adaptive.reexplore", "repro.adaptive.reexplore", "OnlineReexplorer.explore"),
    ("scenarios.runner", "repro.scenarios.runner", "ScenarioRunner.run"),
)


def span_name(layer: str, attribute: str) -> str:
    return f"{layer}:{attribute}"


class Trace:
    """Spans of one traced round, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.names: List[str] = []
        # One row per span, in start order:
        # [name index, start, end, parent index, root index].
        self.spans: List[list] = []
        self.absent: List[str] = []
        self.wall_s = 0.0
        self._stack: List[int] = []

    def _wrap(self, name: str, func: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[parent][4] if parent >= 0 else index
            row = [name_id, clock(), 0.0, parent, root]
            spans.append(row)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def clip(self, start: float, end: float) -> None:
        """Keep the spans between ``start`` and ``end``, the round's timed region.

        Both are read outside any span, so a span lies wholly inside or
        outside them, and the kept spans are one contiguous slice.
        """
        starts = [row[1] for row in self.spans]
        first = int(np.searchsorted(starts, start))
        last = int(np.searchsorted(starts, end))
        self.spans = [
            [row[0], row[1], row[2], max(row[3] - first, -1), row[4] - first]
            for row in self.spans[first:last]
        ]
        self.wall_s = end - start

    # -- aggregation ---------------------------------------------------------
    def durations(self, name: str, self_time: bool = False) -> np.ndarray:
        """Seconds per span called ``name`` (minus direct children if asked)."""
        if name not in self.names or not self.spans:
            return np.zeros(0)
        table = np.asarray(self.spans)
        spent = table[:, 2] - table[:, 1]
        if self_time:
            parents = table[:, 3].astype(np.int64)
            nested = parents >= 0
            spent = spent - np.bincount(
                parents[nested], weights=spent[nested], minlength=len(spent)
            )
        return spent[table[:, 0] == self.names.index(name)]

    def root_seconds(self) -> float:
        """Wall covered by spans that have no parent."""
        return float(sum(row[2] - row[1] for row in self.spans if row[3] < 0))

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent (must be 0)."""
        return sum(
            1
            for row in self.spans
            if row[3] >= 0
            and (row[1] < self.spans[row[3]][1] or row[2] > self.spans[row[3]][2])
        )

    def write(self, path: str, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": workload,
                    "round_wall_s": self.wall_s,
                    "absent_targets": self.absent,
                    "names": self.names,
                    "columns": ["name", "start_s", "end_s", "parent", "root"],
                    "spans": self.spans,
                },
                handle,
            )


def _resolve(module_name: str, attribute: str):
    """``(owner, leaf name)`` of a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        getattr(owner, leaf)
    except (ImportError, AttributeError):
        return None
    return owner, leaf


@contextmanager
def tracing(targets: Sequence[Tuple[str, str, str]] = TARGETS):
    """Install the span wrappers, yield the :class:`Trace`, restore on exit."""
    trace = Trace()
    undo: List[Callable[[], None]] = []
    try:
        for layer, module_name, attribute in targets:
            name = span_name(layer, attribute)
            resolved = _resolve(module_name, attribute)
            if resolved is None:
                trace.absent.append(name)
                continue
            owner, leaf = resolved
            # The raw attribute keeps classmethod/staticmethod descriptors; an
            # inherited method is patched on the subclass and deleted after.
            inherited = leaf not in vars(owner)
            raw = inspect.getattr_static(owner, leaf)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(trace._wrap(name, raw.__func__))
            else:
                patched = trace._wrap(name, raw)
            setattr(owner, leaf, patched)
            if inherited:
                undo.append(lambda owner=owner, leaf=leaf: delattr(owner, leaf))
            else:
                undo.append(
                    lambda owner=owner, leaf=leaf, raw=raw: setattr(owner, leaf, raw)
                )
        yield trace
    finally:
        for restore in reversed(undo):
            restore()


def layer_metrics(trace: Trace, counters: Dict[str, float], requests: int, ticks: int):
    """Every per-layer metric of ``BENCHMARK.json`` for one traced round.

    ``counters`` are the counts the workload read from the program after the
    round (0 when the layer did not run); times come from the spans.  A
    metric whose span target is absent is ``None``.
    """
    wall = trace.wall_s
    absent = set(trace.absent)

    def stat(layer, attribute, reduce, scale=1.0, self_time=False) -> Optional[float]:
        name = span_name(layer, attribute)
        if name in absent:
            return None
        values = trace.durations(name, self_time)
        return float(reduce(values) * scale) if values.size else 0.0

    def p50(layer, attribute, scale, self_time=False):
        return stat(layer, attribute, np.median, scale, self_time)

    def total(layer, attribute, self_time=False):
        return stat(layer, attribute, np.sum, 1.0, self_time)

    def calls(layer, attribute):
        return stat(layer, attribute, len)

    def per(value: Optional[float], base: Optional[float], scale: float = 1.0):
        """``value / base``; None if a target is absent, 0 if the layer did not run."""
        if value is None or base is None:
            return None
        return value * scale / base if base else 0.0

    def count(key: str) -> float:
        return float(counters.get(key, 0.0))

    ms, us = 1e3, 1e6
    serve_mixed = total("cluster.cluster", "ServingCluster.serve_mixed")
    serve_total = _add(serve_mixed, total("cluster.cluster", "ServingCluster.serve_batch"))
    # Everything of an ingress round that is not the cluster call: futures,
    # wake-ups, IngressDecision construction -- and, when batches do not fill,
    # the idle wait for the coalescer timer.  (None and 0 pass through.)
    outside_cluster = serve_mixed and wall - serve_mixed
    explore_calls = calls("adaptive.reexplore", "OnlineReexplorer.explore")
    metrics = {
        "core.als.solve_ms_p50": p50("core.als", "ALSCompleter.complete_result", ms),
        "core.als.busy_share": per(total("core.als", "ALSPredictor.predict"), wall),
        "core.als.cold_solves": count("als_cold_solves"),
        "core.als.warm_solves": count("als_warm_solves"),
        "core.policies.select_self_ms_p50": p50(
            "core.policies", "LimeQOPolicy.select", ms, self_time=True
        ),
        "core.explorer.step_self_ms_p50": p50(
            "core.explorer", "OfflineExplorer.step", ms, self_time=True
        ),
        "core.explorer.oracle_ms_p50": p50("core.explorer", "MatrixOracle.execute_many", ms),
        "core.explorer.step_ms_p95": stat(
            "core.explorer", "OfflineExplorer.step", lambda v: np.percentile(v, 95), ms
        ),
        "core.explorer.censored_share": count("censored_share"),
        "core.explorer.useful_cell_share": count("useful_cell_share"),
        "core.explorer.latency_ratio_at_budget": count("latency_ratio_at_budget"),
        "core.workload_matrix.observe_ms_p50": p50(
            "core.workload_matrix", "WorkloadMatrix.observe_batch", ms
        ),
        "core.workload_matrix.observe_calls": _add(
            calls("core.workload_matrix", "WorkloadMatrix.observe_batch"),
            calls("core.workload_matrix", "WorkloadMatrix.observe_censored"),
        ),
        "nn.trainer.fit_ms_p50": p50("nn.trainer", "TCNNTrainer.fit", ms),
        "nn.trainer.predict_full_ms_p50": p50("nn.trainer", "TCNNTrainer.predict_full", ms),
        "nn.trainer.fit_calls": calls("nn.trainer", "TCNNTrainer.fit"),
        "nn.trainer.busy_share": per(
            _add(
                total("nn.trainer", "TCNNTrainer.fit"),
                total("nn.trainer", "TCNNTrainer.predict_full"),
            ),
            wall,
        ),
        "ingress.coalescer.queue_wait_ms_mean": count("queue_wait_ms_mean"),
        "ingress.coalescer.queue_wait_ms_max": count("queue_wait_ms_max"),
        "ingress.coalescer.batch_size_mean": count("batch_size_mean"),
        "ingress.coalescer.flushed_batches": count("flushed_batches"),
        "ingress.ingress.overhead_us_per_req": per(outside_cluster, requests, us),
        "ingress.ingress.request_p99_ms": count("request_p99_ms"),
        "ingress.ingress.shed": count("shed"),
        "cluster.cluster.serve_mixed_self_us_per_req": per(
            total("cluster.cluster", "ServingCluster.serve_mixed", self_time=True), requests, us
        ),
        "cluster.cluster.observe_self_us_p50": p50(
            "cluster.cluster", "ServingCluster.observe_batch", us, self_time=True
        ),
        "cluster.cluster.fan_out_mean": count("fan_out_mean"),
        "cluster.cluster.degraded_decisions": count("degraded_decisions"),
        "cluster.router.split_us_p50": p50("cluster.router", "split_batch", us),
        "cluster.router.split_calls": calls("cluster.router", "split_batch"),
        "cluster.shard.serve_local_us_p50": p50("cluster.shard", "ClusterShard.serve_local", us),
        "cluster.shard.observe_local_us_p50": p50(
            "cluster.shard", "ClusterShard.observe_local", us
        ),
        "serving.batch_cache.snapshot_rebuilds": calls(
            "serving.batch_cache", "CacheSnapshot.compute"
        ),
        "serving.batch_cache.rebuild_ms_p50": p50(
            "serving.batch_cache", "CacheSnapshot.compute", ms
        ),
        "serving.batch_cache.rebuild_share_of_serve": per(
            total("serving.batch_cache", "CacheSnapshot.compute"), serve_total
        ),
        "serving.refresh.refresh_ms_p50": p50(
            "serving.refresh", "IncrementalALSRefresher.refresh", ms
        ),
        "serving.refresh.warm_refreshes": count("warm_refreshes"),
        "serving.refresh.cold_solves": count("refresh_cold_solves"),
        "cluster.scheduler.tick_ms_p50": p50("cluster.scheduler", "RefreshScheduler.tick", ms),
        "cluster.scheduler.dirty_shards_mean": count("dirty_shards_mean"),
        "durability.journal.log_observe_us_p50": p50(
            "durability.journal", "ShardJournal.log_observe", us
        ),
        "durability.journal.appended_records": count("appended_records"),
        "durability.journal.appended_bytes": count("appended_bytes"),
        "durability.journal.bytes_per_row": count("wal_bytes_per_row"),
        "durability.journal.checkpoint_ms_p50": p50(
            "durability.journal", "ShardJournal.checkpoint", ms
        ),
        "durability.journal.on_disk_bytes_end": count("on_disk_bytes_end"),
        "durability.recovery.recover_all_ms": count("recovery_ms"),
        "durability.recovery.replay_ms_per_krecord": per(
            total("durability.recovery", "recover_journal"), count("replayed_records"), ms * 1e3
        ),
        "durability.recovery.replayed_records": count("replayed_records"),
        "durability.recovery.snapshot_load_ms_p50": p50(
            "durability.recovery", "load_snapshot", ms
        ),
        "adaptive.controller.record_us_p50": p50(
            "adaptive.controller", "ClusterAdaptationController.record", us
        ),
        "adaptive.controller.tick_ms_p50": p50(
            "adaptive.controller", "ClusterAdaptationController.tick", ms
        ),
        "adaptive.controller.tick_ms_max": stat(
            "adaptive.controller", "ClusterAdaptationController.tick", np.max, ms
        ),
        "adaptive.controller.respond_ms_p50": p50(
            "adaptive.controller", "AdaptationController.respond", ms
        ),
        "adaptive.controller.busy_share": per(
            _add(
                total("adaptive.controller", "ClusterAdaptationController.record"),
                total("adaptive.controller", "ClusterAdaptationController.tick"),
            ),
            wall,
        ),
        "adaptive.controller.responses": count("responses"),
        "adaptive.controller.explored_cells": count("explored_cells"),
        "adaptive.controller.invalidated_rows": count("invalidated_rows"),
        "adaptive.reexplore.explore_ms_p50": p50(
            "adaptive.reexplore", "OnlineReexplorer.explore", ms
        ),
        "adaptive.reexplore.cells_per_call": per(count("explored_cells"), explore_calls),
        "scenarios.runner.self_ms_per_tick": per(
            total("scenarios.runner", "ScenarioRunner.run", self_time=True), ticks, ms
        ),
        "trace.root_span_share": per(trace.root_seconds(), wall),
        "trace.spans_recorded": float(len(trace.spans)),
        "trace.absent_targets": float(len(trace.absent)),
    }
    return metrics


def _add(first: Optional[float], second: Optional[float]) -> Optional[float]:
    return None if first is None or second is None else first + second
