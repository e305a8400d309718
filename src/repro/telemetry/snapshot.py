"""`TelemetrySnapshot`: one exportable view of a running system.

:func:`collect_snapshot` pools whatever parts of the stack the caller
hands it -- registry state, :class:`~repro.serving.stats.ServingStats`
or :class:`~repro.cluster.stats.ClusterStats`, ingress queue stats,
refresh-scheduler counts, WAL segment/LSN/checkpoint state, and which
shards are DOWN -- into a single JSON-ready dict.  It is the
"health endpoint" of the library: examples print it, the chaos and load
benchmarks dump it as ``TELEMETRY_*.json`` CI artifacts
(:func:`write_telemetry_json`).

Collection is cold-path only (deep-copies and dict building); never
call it per batch.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from .runtime import Telemetry

SNAPSHOT_SCHEMA_VERSION = 1


class TelemetrySnapshot:
    """An immutable-ish wrapper around one collected snapshot dict."""

    __slots__ = ("payload",)

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.payload = payload

    def as_dict(self) -> Dict[str, Any]:
        return self.payload

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = ", ".join(sorted(self.payload))
        return f"TelemetrySnapshot({keys})"


def collect_snapshot(
    telemetry: Optional[Telemetry] = None,
    service: Any = None,
    cluster: Any = None,
    ingress: Any = None,
) -> TelemetrySnapshot:
    """Pool the observable state of whatever components are provided.

    Every argument is optional and duck-typed: pass a
    :class:`~repro.serving.service.ServingService`, a
    :class:`~repro.cluster.cluster.ServingCluster`, an ingress, or any
    subset.  Sections for absent
    components are simply omitted.
    """
    payload: Dict[str, Any] = {"schema_version": SNAPSHOT_SCHEMA_VERSION}

    if telemetry is not None:
        payload["enabled"] = True
        payload["metrics"] = telemetry.registry.snapshot()
        payload["traces"] = telemetry.tracer.snapshot()

    if service is not None:
        payload["serving"] = service.stats().as_dict()
        journal = getattr(service, "journal", None)
        if journal is not None:
            payload["wal"] = {"service": _journal_section(journal)}

    if cluster is not None:
        payload["cluster"] = cluster.stats().as_dict()
        payload["health"] = _health_section(cluster)
        payload["scheduler"] = _scheduler_section(cluster.scheduler)
        wal = _cluster_wal_section(cluster)
        if wal:
            payload["wal"] = wal

    if ingress is not None:
        payload["ingress"] = ingress.stats().as_dict()

    return TelemetrySnapshot(payload)


def write_telemetry_json(name: str, snapshot: TelemetrySnapshot) -> str:
    """Write ``TELEMETRY_<name>.json`` for CI artifact upload.

    Mirrors ``benchmarks/_bench_utils.write_bench_json``: the file lands
    in ``BENCH_OUTPUT_DIR`` when set, else the current directory, and
    the path is returned.
    """
    out_dir = os.environ.get("BENCH_OUTPUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"TELEMETRY_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(snapshot.to_json())
        fh.write("\n")
    return path


# -- section builders -------------------------------------------------------

def _journal_section(journal: Any) -> Dict[str, Any]:
    wal = getattr(journal, "wal", None)
    return {
        "next_lsn": int(journal.next_lsn),
        "appended_records": int(journal.appended_records),
        "appended_bytes": int(journal.appended_bytes),
        "on_disk_bytes": int(journal.on_disk_bytes()),
        "segment_count": int(wal.segment_count) if wal is not None else 0,
        "checkpoints": int(getattr(journal, "checkpoints", 0)),
    }


def _cluster_wal_section(cluster: Any) -> Dict[str, Any]:
    shards = getattr(cluster, "shards", {})
    out: Dict[str, Any] = {}
    for shard_id, shard in shards.items():
        journal = getattr(shard, "journal", None)
        if journal is not None:
            out[str(shard_id)] = _journal_section(journal)
    return out


def _health_section(cluster: Any) -> Dict[str, Any]:
    down = cluster.down_shards
    up = [s for s in cluster.shard_ids if s not in down]
    return {
        "up_shards": [int(s) for s in up],
        "down_shards": [int(s) for s in down],
        "n_up": len(up),
        "n_down": len(down),
    }


def _scheduler_section(scheduler: Any) -> Dict[str, Any]:
    return {
        "ticks": int(scheduler.ticks),
        "refreshes": int(scheduler.refreshes),
        "skipped_down": int(scheduler.skipped_down),
    }

