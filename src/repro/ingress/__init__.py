"""Async ingress: request coalescing, admission control, background loops.

The millions-of-users front door over the serving stack.  Independent
clients ``await serve(...)`` one query at a time; the ingress coalesces
concurrent requests into the vectorised batches
:class:`~repro.serving.ServingService` / :class:`~repro.cluster.ServingCluster`
are fast at (cut on size, on a quiet event loop, or at the ``max_wait_s``
latency cap -- whichever comes first, all checked by one callback per
loop pass), sheds overload to
default plans through a bounded admission queue (safe by the paper's
no-regression guarantee; counted in serving stats), and hosts the
adaptation-controller and refresh-scheduler ticks as background asyncio
tasks.

Decisions through the ingress are byte-identical to the synchronous
batch path -- coalescing changes when a snapshot lookup runs, never what
it returns.
"""

from .background import PeriodicTicker
from .coalescer import FLUSH_REASONS, CoalescerCore
from .ingress import ClusterIngress, IngressDecision, IngressStats, ServiceIngress

__all__ = [
    "FLUSH_REASONS",
    "ClusterIngress",
    "CoalescerCore",
    "IngressDecision",
    "IngressStats",
    "PeriodicTicker",
    "ServiceIngress",
]
