"""The sharded multi-tenant serving cluster facade.

:class:`ServingCluster` composes the pieces of :mod:`repro.cluster` into
the horizontal layer over PR 1's single-shard :class:`ServingService`:

* tenants register workloads (query-name lists) into per-tenant
  namespaces; every query's row lives on exactly one shard, chosen by
  rendezvous hashing of its ``tenant/name`` routing key;
* a served batch is split into one sub-batch per shard and regathered in
  arrival order: a tenant's array (``serve_batch``) by fancy indexing, a
  coalesced mixed-tenant flush (``serve_mixed``) in one pass over plain lists;
* feedback only marks shards dirty; the background
  :class:`RefreshScheduler` runs warm-started ALS refreshes round-robin
  across them, one per :meth:`~ServingCluster.tick`, so no serve batch ever
  waits on a recompute;
* shards can be added live: rendezvous routing moves only the rows that
  now belong to the new shard, and their full observation state migrates
  with them (:meth:`WorkloadMatrix.export_rows` / ``import_rows``);
* a DOWN shard (marked down, or crashed) degrades to default plans for
  its queries -- no errors, no regressions -- until it is marked up or
  restarted; an UP shard's error is the caller's.

Decisions are byte-identical to a single :class:`ServingService` over the
union matrix (asserted in ``tests/test_cluster.py`` and the cluster
benchmark): sharding partitions rows, and the Figure 2 serving rule is
row-local.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..config import ALSConfig
from ..core.plan_cache import DEFAULT_HINT
from ..core.workload_matrix import WorkloadMatrix, checked_cells, checked_id, checked_ids
from ..durability.faults import FaultFS
from ..durability.journal import ShardJournal
from ..durability.recovery import RecoveredState
from ..errors import ClusterError, InjectedCrash
from ..serving.batch_cache import BatchDecisions
from ..serving.stats import LatencyRecorder, checked_shed_count
from ..telemetry.runtime import ClusterMetrics
from ..telemetry.tracing import OFF
from .router import RendezvousRouter, routing_key, split_batch
from .scheduler import RefreshScheduler
from .shard import ClusterShard
from .stats import ClusterStats


@dataclass
class _TenantDirectory:
    """Routing state for one tenant's workload."""

    tenant: str
    names: List[str] = field(init=False, default_factory=list)
    index: Dict[str, int] = field(init=False, default_factory=dict)
    # Parallel to ``names``: owning shard id and local row on that shard.
    shard_of: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0, dtype=np.int64))
    local_row: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def n_queries(self) -> int:
        return len(self.names)

    def key(self, query: int) -> str:
        return routing_key(self.tenant, self.names[query])


def _checked_queries(check, tenant: str, queries, size: int):
    """Query ids (``checked_ids``) or one id (``checked_id``) against their
    own tenant's bound, or a :class:`ClusterError` naming the tenant."""
    try:
        return check("query", queries, size, ClusterError)
    except ClusterError as exc:
        raise ClusterError(f"{exc} for tenant {tenant!r}") from None


#: Feedback kind -> the :class:`ClusterShard` door that applies it; an
#: outage-queue entry is ``(kind, local_rows, hints, values)`` and replays
#: through the same door.  Names, looked up on each call, so a wrapper put
#: on the class afterwards (a tracer's span) is the door that runs.
_FEEDBACK_DOORS = {"observe": "observe_local", "censor": "observe_censored_local"}


class ServingCluster:
    """Horizontal, multi-tenant composition of serving shards.

    Parameters
    ----------
    n_shards:
        Initial shard count (more can be added live with :meth:`add_shard`).
    n_hints:
        Width of every workload matrix -- hint sets are shared cluster-wide;
        rows (queries) are what gets sharded.
    als_config:
        Per-shard incremental ALS refresher configuration.
    durability_dir:
        When set, every shard gets a write-ahead journal under
        ``<durability_dir>/shard-<id>`` and the crash lifecycle
        (:meth:`kill_shard` / :meth:`restart_shard` / :meth:`checkpoint`)
        becomes available.  Without it the cluster is process-local, as
        before.
    fault_fs:
        Optional :class:`~repro.durability.FaultFS` shared by every
        shard's journal (the chaos-test seam).
    journal_sync:
        WAL sync policy for every shard journal (``"os"`` or ``"always"``).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  One is shared
        (shard-labeled) with every shard's serving stack, holds the cluster
        facade's counters and topology gauges in its registry, and turns
        stage timing on; with None the same counters live on private
        registries and no stage is timed.
    """

    def __init__(
        self,
        n_shards: int,
        n_hints: int,
        als_config: Optional[ALSConfig] = None,
        durability_dir: Optional[str] = None,
        fault_fs: Optional[FaultFS] = None,
        journal_sync: str = "os",
        telemetry=None,
    ) -> None:
        if n_shards < 1:
            raise ClusterError(f"cluster needs at least one shard, got {n_shards}")
        self.n_hints = int(n_hints)
        self._als_config = als_config or ALSConfig()
        self.durability_dir = durability_dir
        self._fault_fs = fault_fs
        self._journal_sync = journal_sync
        self.router = RendezvousRouter()
        # The DOWN shards: marked down, or crashed and not yet restarted.
        self._down: Set[int] = set()
        self.scheduler = RefreshScheduler(self._down)
        self.shards: Dict[int, ClusterShard] = {}
        self._tenants: Dict[str, _TenantDirectory] = {}
        # Bumped when a directory array changes (add_queries, add_tenant
        # through it, add_shard); serve_mixed's list table rebuilds on it.
        self._topology = 0
        self._table: Optional[tuple] = None
        self._next_shard_id = 0
        # Feedback addressed to a crashed shard waits here (per shard id)
        # and replays on restart; entries are (kind, local_rows, hints,
        # values), kind a key of _FEEDBACK_DOORS.
        self._outage_queue: Dict[int, List[tuple]] = {}
        self.telemetry = telemetry
        self._tracer = OFF if telemetry is None else telemetry.tracer
        # The facade counters' only store; private when nobody exports it.
        self._metrics = ClusterMetrics(None if telemetry is None else telemetry.registry)
        for _ in range(n_shards):
            self._create_shard()

    # -- topology --------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Current shard count."""
        return len(self.shards)

    @property
    def shard_ids(self) -> List[int]:
        """Shard ids in creation order."""
        return self.router.shard_ids

    @property
    def tenants(self) -> List[str]:
        """Registered tenant ids."""
        return list(self._tenants)

    def _shard_dir(self, shard_id: int) -> str:
        if self.durability_dir is None:
            raise ClusterError(
                "this cluster has no durability_dir; crash/restart needs one"
            )
        return os.path.join(self.durability_dir, f"shard-{shard_id}")

    def _shard_kwargs(self, shard_id: int) -> Dict:
        """What a new and a recovered shard are built with alike."""
        return dict(
            shard_id=shard_id,
            n_hints=self.n_hints,
            als_config=self._als_config,
            telemetry=self.telemetry,
        )

    def _create_shard(self) -> ClusterShard:
        journal = None
        if self.durability_dir is not None:
            journal = ShardJournal(
                self._shard_dir(self._next_shard_id),
                fs=self._fault_fs,
                sync=self._journal_sync,
            )
        shard = ClusterShard(
            journal=journal, **self._shard_kwargs(self._next_shard_id)
        )
        self._next_shard_id += 1
        self.shards[shard.shard_id] = shard
        self.router.add_shard(shard.shard_id)
        self.scheduler.register(shard)
        return shard

    def add_shard(self) -> int:
        """Add a shard live, migrating exactly the rows that re-route to it.

        Rendezvous hashing guarantees every row either stays put or moves
        to the *new* shard; each migrated row carries its full observation
        state, so decisions before and after rebalancing are identical.
        Rebalancing requires every shard up: rows on a crashed shard are
        unreachable until it restarts.
        """
        down = sorted(sid for sid, shard in self.shards.items() if shard.crashed)
        if down:
            raise ClusterError(
                f"cannot rebalance while shards {down} are down; restart them first"
            )
        new_id = self._next_shard_id
        all_keys = [
            directory.key(q)
            for directory in self._tenants.values()
            for q in range(directory.n_queries)
        ]
        moved = self.router.moves_for_new_shard(all_keys, new_id)
        shard = self._create_shard()
        if moved:
            moved_set = set(moved)
            for source in list(self.shards.values()):
                if source.shard_id == new_id:
                    continue
                owned = [k for k in source.keys if k in moved_set]
                if not owned:
                    continue
                payload = source.export_rows(owned)
                source.remove_rows(owned)
                shard.import_rows(payload)
            self._metrics.rebalanced_rows.inc(len(moved))
            self._rebuild_directories()
        return new_id

    def _rebuild_directories(self) -> None:
        """Recompute every tenant's shard/local-row arrays after a move."""
        for directory in self._tenants.values():
            n = directory.n_queries
            shard_of = np.empty(n, dtype=np.int64)
            local = np.empty(n, dtype=np.int64)
            for q in range(n):
                key = directory.key(q)
                sid = self.router.shard_for(key)
                shard_of[q] = sid
                local[q] = self.shards[sid].local_row(key)
            directory.shard_of = shard_of
            directory.local_row = local
        self._topology += 1

    # -- tenant registration ----------------------------------------------------
    def add_tenant(self, tenant: str, query_names: Sequence[str]) -> None:
        """Register a workload under its own namespace."""
        if tenant in self._tenants:
            raise ClusterError(f"tenant {tenant!r} already registered")
        routing_key(tenant, "")  # validates the tenant id
        # Registered only once its rows are placed: a failure (a crashed
        # destination shard) leaves no empty tenant behind, so the same call
        # succeeds after the restart.
        directory = _TenantDirectory(tenant=tenant)
        self._add_queries(directory, query_names)
        self._tenants[tenant] = directory

    def add_queries(self, tenant: str, names: Sequence[str]) -> List[int]:
        """Grow a tenant's workload; returns the new tenant-global indices."""
        return self._add_queries(self._directory(tenant), names)

    def _add_queries(
        self, directory: _TenantDirectory, names: Sequence[str]
    ) -> List[int]:
        tenant = directory.tenant
        names = list(names)
        for name in names:
            if name in directory.index:
                raise ClusterError(
                    f"tenant {tenant!r} already has a query named {name!r}"
                )
        if len(set(names)) != len(names):
            raise ClusterError("duplicate query names in one registration")
        keys = [routing_key(tenant, name) for name in names]
        assigned = self.router.assign(keys)
        groups = split_batch(assigned)
        # Every destination is checked before the first takes rows: a failure
        # leaves shards, directory and topology as they were, so the same
        # call succeeds once the shard is back.
        down = sorted(int(sid) for sid, _ in groups if self.shards[sid].crashed)
        if down:
            raise ClusterError(
                f"cannot add queries while shards {down} are down; restart them first"
            )
        first = directory.n_queries
        new_shard_of = np.empty(len(names), dtype=np.int64)
        new_local = np.empty(len(names), dtype=np.int64)
        for sid, positions in groups:
            shard_keys = [keys[p] for p in positions]
            local_indices = self.shards[sid].add_rows(shard_keys)
            new_shard_of[positions] = sid
            new_local[positions] = local_indices
        for offset, name in enumerate(names):
            directory.index[name] = first + offset
        directory.names.extend(names)
        directory.shard_of = np.concatenate([directory.shard_of, new_shard_of])
        directory.local_row = np.concatenate([directory.local_row, new_local])
        self._topology += 1
        return list(range(first, first + len(names)))

    def _directory(self, tenant: str) -> _TenantDirectory:
        try:
            return self._tenants[tenant]
        except (KeyError, TypeError):  # (an unhashable tenant is not registered)
            raise ClusterError(f"unknown tenant {tenant!r}") from None

    def query_index(self, tenant: str, name: str) -> int:
        """Tenant-global index of a named query."""
        directory = self._directory(tenant)
        try:
            return directory.index[name]
        except KeyError:
            raise ClusterError(
                f"tenant {tenant!r} has no query named {name!r}"
            ) from None

    @property
    def directories(self) -> Mapping[str, _TenantDirectory]:
        """Live tenant -> directory view, for readers too hot for a call."""
        return self._tenants

    def n_queries(self, tenant: str) -> int:
        """Number of queries registered for a tenant."""
        return self._directory(tenant).n_queries

    # -- the hot path ------------------------------------------------------------
    def _resolve(
        self, tenant: str, queries
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        directory = self._directory(tenant)
        queries = _checked_queries(checked_ids, tenant, queries, directory.n_queries)
        return queries, directory.shard_of[queries], directory.local_row[queries]

    def locate(self, tenant: str, queries) -> Tuple[np.ndarray, np.ndarray]:
        """Map tenant-global query indices to ``(shard_ids, local_rows)``.

        The public face of the routing directory: per-shard consumers --
        the adaptive drift controller attributes residuals to the owning
        shard this way -- resolve rows without re-hashing keys.
        """
        _, shard_ids, local = self._resolve(tenant, queries)
        return shard_ids, local

    def serve_batch(self, tenant: str, queries) -> BatchDecisions:
        """Answer one tenant's batch of arrivals (tenant-global indices)."""
        queries, shard_ids, local = self._resolve(tenant, queries)
        return self._serve_assigned(queries, shard_ids, local)

    def _routing(self) -> Dict[str, Tuple[int, List[int], List[int]]]:
        """``tenant -> (size, shard_of, local_row)``, the directory arrays as
        plain lists: a mixed flush reads them one arrival at a time, and a
        list index costs a tenth of a numpy gather's fixed cost."""
        table = self._table
        if table is None or table[0] != self._topology:
            table = self._table = self._topology, {
                d.tenant: (d.n_queries, d.shard_of.tolist(), d.local_row.tolist())
                for d in self._tenants.values()
            }
        return table[1]

    def serve_mixed(self, arrivals: Sequence[Tuple[str, int]]) -> BatchDecisions:
        """Answer a mixed-tenant batch of ``(tenant, query_index)`` arrivals.

        One Python pass checks each arrival against its own tenant and
        buckets it by shard before any shard is asked; each shard present --
        whatever the tenants -- then answers its rows as one list.  Decisions
        come back in arrival order (``queries`` holds the tenant-global
        indices), under the topology of the moment of the call: what moved
        since the arrivals were admitted is followed.  Up to a coalesced
        flush's few hundred arrivals this undercuts numpy's fixed cost per
        array (``docs/performance.md``); :meth:`serve_batch` is the array door.
        """
        table = self._routing()
        start = self._tracer.begin("router.split")
        queries: List[int] = []
        groups: Dict[int, Tuple[List[int], List[int]]] = {}
        for position, arrival in enumerate(arrivals):
            try:
                tenant, query = arrival
            except (TypeError, ValueError):
                raise ClusterError(f"not a (tenant, query) pair: {arrival!r}") from None
            try:
                size, shard_of, local_row = table[tenant]
            except (KeyError, TypeError):
                raise ClusterError(f"unknown tenant {tenant!r}") from None
            if type(query) is not int or not 0 <= query < size:
                query = _checked_queries(checked_id, tenant, query, size)
            group = groups.get(shard_of[query])
            if group is None:
                group = groups[shard_of[query]] = ([], [])
            group[0].append(position)
            group[1].append(local_row[query])
            queries.append(query)
        self._tracer.end("router.split", start)
        # Every position starts degraded; a shard that answers overwrites its own.
        n = len(queries)
        hints = [DEFAULT_HINT] * n
        used_default = [True] * n
        expected = [np.inf] * n
        degraded = 0
        for sid in sorted(groups):
            positions, rows = groups[sid]
            sub = self._ask(sid, ClusterShard.serve_rows, rows)
            if sub is None:
                degraded += len(rows)
            else:
                for position, hint, default, latency in zip(positions, *sub):
                    hints[position] = hint
                    used_default[position] = default
                    expected[position] = latency
        self._count_routed(len(groups), degraded)
        return BatchDecisions(
            queries=np.array(queries, dtype=np.int64),
            hints=np.array(hints, dtype=np.int64),
            used_default=np.array(used_default, dtype=bool),
            expected_latency=np.array(expected, dtype=float),
        )

    def _serve_assigned(
        self, queries: np.ndarray, shard_ids: np.ndarray, local: np.ndarray
    ) -> BatchDecisions:
        start = self._tracer.begin("router.split")
        groups = split_batch(shard_ids)
        self._tracer.end("router.split", start)
        n = queries.shape[0]
        hints = np.full(n, DEFAULT_HINT, dtype=np.int64)
        used_default = np.ones(n, dtype=bool)
        expected = np.full(n, np.inf)
        degraded = 0
        for sid, positions in groups:
            sub = self._ask(sid, ClusterShard.serve_local, local[positions])
            if sub is None:
                degraded += len(positions)
            else:
                hints[positions] = sub.hints
                used_default[positions] = sub.used_default
                expected[positions] = sub.expected_latency
        self._count_routed(len(groups), degraded)
        return BatchDecisions(queries, hints, used_default, expected)

    def _count_routed(self, fan_out: int, degraded: int) -> None:
        """Count one routed batch, once every shard present has answered:
        a batch whose flush failed was answered to nobody."""
        self._metrics.routed_batches.inc()
        self._metrics.fan_out.inc(fan_out)
        if degraded:
            self._metrics.degraded.inc(degraded)

    def _ask(self, sid: int, door, rows):
        """Shard ``sid``'s answer through ``door`` (``ClusterShard.serve_local``
        / ``.serve_rows``), or None when the shard is DOWN: its arrivals keep
        the default plan at unknown latency, and the caller counts them as
        degraded.  An UP shard is asked directly, so an error it raises is
        the caller's.  A shard's own serve counters count the rows it
        decided, even when a later shard's error fails the whole batch."""
        if sid in self._down:
            return None
        return door(self.shards[sid], rows)

    def serve_all(self, tenant: str) -> BatchDecisions:
        """Answer every query of one tenant as a single batch."""
        return self.serve_batch(tenant, np.arange(self.n_queries(tenant)))

    # -- the feedback path --------------------------------------------------------
    def observe_batch(self, tenant: str, queries, hints, latencies) -> None:
        """Record measured latencies for one tenant's queries.

        The affected shards become dirty; the actual ALS refreshes run when
        the background scheduler next picks them (:meth:`tick`), never
        inline.  Health does not gate feedback: observations always land
        (in-process the matrix is reachable; a deployment would queue them).
        """
        self._feedback("observe", tenant, queries, hints, latencies)

    def observe_censored_batch(self, tenant: str, queries, hints, lower_bounds) -> None:
        """Record timed-out executions (latency lower bounds) for one
        tenant's queries: :meth:`observe_batch`'s path, under the censored
        rule (bounds finite and > 0; a completed cell keeps its latency)."""
        self._feedback("censor", tenant, queries, hints, lower_bounds)

    def _feedback(self, kind: str, tenant: str, queries, hints, values) -> None:
        """The one feedback body: check the whole batch before any shard is
        touched or anything queued -- a bad element must not leave earlier
        shard groups applied and later ones not -- then apply each shard's
        sub-batch through its ``kind`` door, or queue it while the shard is
        down."""
        directory = self._directory(tenant)
        try:
            queries, hints, values = checked_cells(
                kind, queries, hints, values,
                (directory.n_queries, self.n_hints), kind == "censor", ClusterError,
            )
        except ClusterError as exc:
            raise ClusterError(f"{exc} for tenant {tenant!r}") from None
        local = directory.local_row[queries]
        for sid, positions in split_batch(directory.shard_of[queries]):
            sid = int(sid)
            cells = (local[positions], hints[positions], values[positions])
            if self.shards[sid].crashed:
                self._queue_feedback(sid, kind, cells)
                continue
            try:
                getattr(self.shards[sid], _FEEDBACK_DOORS[kind])(*cells)
            except InjectedCrash:
                # The record never applied (write-ahead ordering), so the
                # whole sub-batch is queued; matrix mutations are
                # idempotent, so any prefix the WAL did capture converges.
                self._handle_crash(sid)
                self._queue_feedback(sid, kind, cells)

    # -- background refresh ---------------------------------------------------------
    def tick(self) -> List[int]:
        """One scheduler tick: refresh the next dirty shard, if any."""
        return self.scheduler.tick()

    # -- admission control --------------------------------------------------------------
    def record_shed(self, count: int = 1) -> None:
        """Count arrivals degraded to default plans by an ingress layer.

        Shed requests never reach a shard (that is the point of admission
        control), so the counter lives on the cluster facade rather than
        any shard's recorder; it surfaces in :class:`ClusterStats`.  This
        is where the count enters a clustered stack, so it is validated
        here (:class:`~repro.errors.ClusterError`).
        """
        self._metrics.shed.inc(checked_shed_count(count, ClusterError))

    # -- failover ---------------------------------------------------------------------
    def mark_down(self, shard_id: int) -> None:
        """Degrade a shard: its queries get default plans until marked up.

        A degraded answer is not an error.  The default plan is what the
        DBMS would have executed with no hint service at all, so the
        paper's no-regression guarantee holds cell for cell through an
        outage: a degraded answer is never slower than having no cluster.
        What is lost is only the upside (verified faster plans) and the
        expected-latency annotation (the shard's matrix is unreachable, so
        it reports ``inf``).
        """
        self._down.add(self._shard(shard_id).shard_id)

    def mark_up(self, shard_id: int) -> None:
        """Restore a shard to verified serving.

        A crashed shard is refused: its state is gone until
        :meth:`restart_shard` recovers it from its journal.
        """
        shard = self._shard(shard_id)
        if shard.crashed:
            raise ClusterError(
                f"shard {shard_id} crashed; restart_shard({shard_id}) rejoins it"
            )
        self._down.discard(shard.shard_id)

    @property
    def down_shards(self) -> List[int]:
        """Ids of the DOWN shards (marked down, or crashed), ascending."""
        return sorted(self._down)

    # -- crash-and-rejoin lifecycle -----------------------------------------------------
    def _shard(self, shard_id: int) -> ClusterShard:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise ClusterError(f"unknown shard {shard_id}") from None

    def _queue_feedback(self, shard_id: int, kind: str, cells: tuple) -> None:
        self._outage_queue.setdefault(shard_id, []).append((kind, *cells))
        self._metrics.queued_feedback.inc(cells[0].size)

    def _handle_crash(self, shard_id: int) -> None:
        """Turn an :class:`InjectedCrash` (or operator kill) into an outage."""
        shard = self._shard(shard_id)
        if not shard.crashed:
            shard.crash()
        self._down.add(shard_id)
        self._outage_queue.setdefault(shard_id, [])
        self._metrics.crashes.inc()

    def kill_shard(self, shard_id: int) -> None:
        """Crash a shard: in-memory state is gone, its rows degrade to
        default plans, and feedback for them queues until
        :meth:`restart_shard` replays it.  Requires a ``durability_dir``
        (without one the state would be unrecoverable)."""
        self._shard_dir(shard_id)  # raises without durability
        if self._shard(shard_id).crashed:
            raise ClusterError(f"shard {shard_id} is already down")
        self._handle_crash(shard_id)

    def restart_shard(self, shard_id: int) -> RecoveredState:
        """Recover a crashed shard from its journal and rejoin it.

        Snapshot + WAL replay rebuild the matrix byte-identically, the
        recovered shard takes over its old id in the router and refresh
        scheduler and rejoins UP -- even if it had been marked down before
        the crash -- and every feedback batch queued during the outage is
        applied (and journaled) in arrival order.  Returns the
        :class:`~repro.durability.RecoveredState`, whose ``backlog`` the
        owner should hand to the adaptation layer
        (:meth:`ClusterAdaptationController.restore_backlog`).

        A crash injected while the queue drains downs the shard again and
        keeps the unapplied tail queued; a further restart converges.
        """
        old = self._shard(shard_id)
        if not old.crashed:
            raise ClusterError(f"shard {shard_id} is not down; kill it first")
        shard = ClusterShard.recover(
            self._shard_dir(shard_id),
            fs=self._fault_fs,
            sync=self._journal_sync,
            **self._shard_kwargs(shard_id),
        )
        self.shards[shard_id] = shard
        self.scheduler.replace(shard)
        self._down.discard(shard_id)
        pending = self._outage_queue.pop(shard_id, [])
        for index, (kind, *cells) in enumerate(pending):
            try:
                getattr(shard, _FEEDBACK_DOORS[kind])(*cells)
                self._metrics.replayed_feedback.inc(cells[0].size)
            except InjectedCrash:
                # Same supervision as the live feedback paths: the crashed
                # entry never applied (write-ahead ordering), so it and
                # everything behind it stay queued for the next restart;
                # idempotent replay converges on any WAL-captured prefix.
                self._handle_crash(shard_id)
                self._outage_queue[shard_id] = pending[index:]
                break
        self._metrics.restarts.inc()
        assert shard.recovered is not None
        return shard.recovered

    def checkpoint(self, shard_id: Optional[int] = None) -> List[int]:
        """Snapshot + WAL-truncate shards (one, or every live journaled one).

        A crash injected mid-checkpoint downs that shard (supervision
        mirrors the feedback path) without failing the sweep.  Returns the
        ids that completed a checkpoint.
        """
        targets = [shard_id] if shard_id is not None else sorted(self.shards)
        done: List[int] = []
        for sid in targets:
            shard = self._shard(sid)
            if shard.journal is None or shard.crashed:
                continue
            try:
                shard.checkpoint()
                done.append(sid)
            except InjectedCrash:
                self._handle_crash(sid)
        return done

    def close(self) -> None:
        """Clean shutdown: final checkpoint and journal release per shard."""
        for shard in self.shards.values():
            if not shard.crashed:
                shard.close()

    # -- introspection -----------------------------------------------------------------
    def export_tenant_matrix(self, tenant: str) -> WorkloadMatrix:
        """Reassemble one tenant's union matrix from its shard-resident rows.

        The inverse of sharding, in tenant-global query order -- what a
        single :class:`ServingService` over the whole workload would hold.
        Used by the equivalence tests and benchmark.
        """
        directory = self._directory(tenant)
        n = directory.n_queries
        if n == 0:
            raise ClusterError(f"tenant {tenant!r} has no queries to export")
        values = np.full((n, self.n_hints), np.inf)
        observed = np.zeros((n, self.n_hints), dtype=bool)
        censored = np.zeros((n, self.n_hints), dtype=bool)
        # One batched export per shard, scattered back into global order.
        for sid, positions in split_batch(directory.shard_of):
            payload = self.shards[sid].export_rows(
                [directory.key(int(q)) for q in positions]
            )
            values[positions] = payload["values"]
            observed[positions] = payload["observed"]
            censored[positions] = payload["censored"]
        return WorkloadMatrix.from_dict(
            {
                "values": values,
                "observed": observed,
                "censored": censored,
                "timeouts": np.where(censored, values, 0.0),
                "query_names": list(directory.names),
                "hint_names": [f"h{j}" for j in range(self.n_hints)],
            }
        )

    def stats(self) -> ClusterStats:
        """Cluster-wide report: merged counters, exact global percentiles.

        The topology and scheduler gauges are refreshed here (cold path),
        so a registry read right after ``stats()`` (the snapshot collector)
        sees the values the report holds; the facade counters are read
        from their registry cells, their only store.  The serving views
        come from the shards' own recorders: exact pooled percentiles
        (each shard's retained window, so bounded work however long the
        shards have served), and a recovered shard counts from zero.
        """
        cm = self._metrics
        n_tenants = len(self._tenants)
        total_rows = sum(s.n_rows for s in self.shards.values())
        cm.shards.set(self.n_shards)
        cm.shards_up.set(self.n_shards - len(self._down))
        cm.tenants.set(n_tenants)
        cm.total_rows.set(total_rows)
        cm.scheduler_ticks.set(self.scheduler.ticks)
        cm.scheduler_refreshes.set(self.scheduler.refreshes)
        routed = int(cm.routed_batches.value)
        return ClusterStats(
            n_shards=self.n_shards,
            n_tenants=n_tenants,
            total_rows=total_rows,
            per_shard={sid: shard.stats() for sid, shard in self.shards.items()},
            cluster=LatencyRecorder.merged(
                [s.recorder() for s in self.shards.values()]
            ).report(),
            routed_batches=routed,
            fan_out=cm.fan_out.value / routed if routed else 0.0,
            degraded_decisions=int(cm.degraded.value),
            shed_decisions=int(cm.shed.value),
            rebalanced_rows=int(cm.rebalanced_rows.value),
            scheduler_ticks=self.scheduler.ticks,
            scheduler_refreshes=self.scheduler.refreshes,
            crashes=int(cm.crashes.value),
            restarts=int(cm.restarts.value),
            queued_feedback=int(cm.queued_feedback.value),
            replayed_feedback=int(cm.replayed_feedback.value),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingCluster({self.n_shards} shards, "
            f"{len(self._tenants)} tenants, "
            f"{sum(s.n_rows for s in self.shards.values())} rows)"
        )
