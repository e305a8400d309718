"""Deterministic fault injection for the durability layer.

Crash testing is only useful when a failure is *reproducible*: "the shard
died somewhere during the drift phase" cannot be replayed, but "the shard
died at the 3rd ``wal.append.before_fsync`` point" can.  Two small pieces
make that possible:

* :class:`FaultClock` counts how many times each named fault point has
  been passed.  The count is the only notion of time the injector has, so
  a test that arms "crash at the Nth occurrence" behaves identically on
  every run regardless of wall-clock timing.
* :class:`FaultFS` is the single seam between the WAL/snapshot code and
  the real filesystem.  Every write, fsync, rename, and unlink goes
  through it, and each one brackets the syscall with named fault points
  (``<prefix>.before_write``, ``<prefix>.after_fsync``, ...).  With no
  injector attached it is a zero-cost pass-through.

A triggered fault raises :class:`~repro.errors.InjectedCrash`, which
models the process dying at that instruction: bytes already handed to the
kernel stay on disk, bytes not yet written never appear.  Torn writes
(``<prefix>.torn_write``) additionally write a *prefix* of the record
before dying, producing exactly the partial-final-record artifact the
recovery path must tolerate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, Optional

from ..errors import DurabilityError, InjectedCrash

#: Every fault point the durability layer can die at.  ``wal.append.*``
#: fire on every journal append; ``snapshot.*`` fire while a checkpoint
#: writes and installs the snapshot file; ``wal.truncate.before_remove``
#: fires before each obsolete segment is unlinked.  The ``*_fsync``
#: points on the WAL are only reached when the journal runs with
#: ``sync="always"`` (see :class:`~repro.durability.wal.WriteAheadLog`).
FAULT_POINTS = (
    "wal.append.before_write",
    "wal.append.torn_write",
    "wal.append.before_fsync",
    "wal.append.after_fsync",
    "snapshot.before_write",
    "snapshot.torn_write",
    "snapshot.before_fsync",
    "snapshot.after_fsync",
    "snapshot.before_replace",
    "snapshot.after_replace",
    "wal.truncate.before_remove",
)


@dataclass
class FaultPlan:
    """One armed crash: fire when ``point`` is passed for the ``at``-th time.

    ``at`` counts occurrences *after arming* (``at=1`` means the very next
    pass).  ``torn_fraction`` only applies to ``*.torn_write`` points and
    is the fraction of the record's bytes written before the crash.
    """

    point: str
    trigger_count: int
    torn_fraction: float = 0.5
    fired: bool = field(init=False, default=False)


class FaultClock:
    """Counts passes through each named fault point (deterministic time)."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def tick(self, point: str) -> int:
        """Record one pass through ``point``; returns the new total."""
        count = self._counts.get(point, 0) + 1
        self._counts[point] = count
        return count

    def count(self, point: str) -> int:
        """Total passes through ``point`` so far."""
        return self._counts.get(point, 0)


class FaultInjector:
    """Arms crash plans against a :class:`FaultClock`.

    One injector is typically shared by every :class:`FaultFS` in a
    cluster, so "crash the next shard that appends" is a single
    :meth:`arm` call.  ``fired`` records every plan that went off, in
    order, for assertions.
    """

    def __init__(self) -> None:
        self.clock = FaultClock()
        self._plans: List[FaultPlan] = []
        self.fired: List[str] = []

    def arm(self, point: str, at: int = 1, torn_fraction: float = 0.5) -> FaultPlan:
        """Crash at the ``at``-th pass through ``point`` from now on."""
        if point not in FAULT_POINTS:
            raise DurabilityError(
                f"unknown fault point {point!r}; valid points: {', '.join(FAULT_POINTS)}"
            )
        if at < 1:
            raise DurabilityError(f"fault arm count must be >= 1, got {at}")
        if not 0.0 <= torn_fraction < 1.0:
            raise DurabilityError(
                f"torn_fraction must be in [0, 1), got {torn_fraction}"
            )
        plan = FaultPlan(
            point=point,
            trigger_count=self.clock.count(point) + int(at),
            torn_fraction=float(torn_fraction),
        )
        self._plans.append(plan)
        return plan

    def _match(self, point: str) -> Optional[FaultPlan]:
        count = self.clock.tick(point)
        for plan in self._plans:
            if plan.point == point and not plan.fired and count >= plan.trigger_count:
                plan.fired = True
                self.fired.append(point)
                return plan
        return None

    def fire(self, point: str) -> None:
        """Pass through a crash point; raises when a plan triggers."""
        if self._match(point) is not None:
            raise InjectedCrash(f"injected crash at {point}")

    def torn_request(self, point: str) -> Optional[FaultPlan]:
        """Like :meth:`fire` for torn-write points: returns the plan
        instead of raising so the caller can write the partial prefix
        first, then die."""
        return self._match(point)


@dataclass
class FaultFS:
    """Filesystem seam with fault points around every durability syscall.

    All WAL and snapshot I/O routes through this object.  ``injector``
    is optional; without one every method is a plain syscall.
    """

    injector: Optional[FaultInjector] = None

    def fire(self, point: str) -> None:
        if self.injector is not None:
            self.injector.fire(point)

    def write(self, handle: BinaryIO, data: bytes, prefix: str) -> None:
        """Write ``data``; may die before writing or after a torn prefix."""
        self.fire(f"{prefix}.before_write")
        if self.injector is not None:
            plan = self.injector.torn_request(f"{prefix}.torn_write")
            if plan is not None:
                torn = data[: int(len(data) * plan.torn_fraction)]
                handle.write(torn)
                raise InjectedCrash(
                    f"injected torn write at {prefix}.torn_write "
                    f"({len(torn)}/{len(data)} bytes)"
                )
        handle.write(data)

    def fsync(self, handle: BinaryIO, prefix: str) -> None:
        """fsync ``handle``; may die on either side of the syscall."""
        self.fire(f"{prefix}.before_fsync")
        os.fsync(handle.fileno())
        self.fire(f"{prefix}.after_fsync")

    def replace(self, src: str, dst: str, prefix: str) -> None:
        """Atomic rename; may die with the old or the new file in place."""
        self.fire(f"{prefix}.before_replace")
        os.replace(src, dst)
        self.fire(f"{prefix}.after_replace")

    def remove(self, path: str, prefix: str) -> None:
        """Unlink ``path``; may die with the file still present."""
        self.fire(f"{prefix}.before_remove")
        os.remove(path)
