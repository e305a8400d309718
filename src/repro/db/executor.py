"""Simulated execution engine with timeout support.

Execution is the only thing LimeQO charges time for, so the executor's
contract is small: run a (query, plan) pair, return either the observed
latency or a *censored* observation (the plan was cancelled at the timeout,
so only a lower bound on its latency is known).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ExecutionError
from .cost_model import LatencyModel
from .hints import HintSet
from .operators import PlanNode
from .optimizer import PlanEnumerator
from .query import Query


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one simulated plan execution.

    Attributes
    ----------
    latency:
        Observed latency when the plan finished, otherwise the (unknown to
        the caller) true latency; use :attr:`charged_time` for accounting.
    timed_out:
        True when the plan was cancelled at ``timeout``.
    charged_time:
        Offline exploration time consumed: the full latency for completed
        plans, the timeout for cancelled plans.
    """

    latency: float
    timed_out: bool
    charged_time: float


class SimulatedExecutor:
    """Executes plans against the latency model, honouring timeouts."""

    def __init__(self, latency_model: LatencyModel) -> None:
        self.latency_model = latency_model

    def execute(
        self, query: Query, plan: PlanNode, timeout: Optional[float] = None
    ) -> ExecutionResult:
        """Run ``plan`` and return its (possibly censored) measurement."""
        if timeout is not None and timeout <= 0:
            raise ExecutionError(f"timeout must be > 0, got {timeout}")
        latency = self.latency_model.latency_seconds(query, plan)
        if timeout is not None and latency >= timeout:
            return ExecutionResult(latency=latency, timed_out=True, charged_time=timeout)
        return ExecutionResult(latency=latency, timed_out=False, charged_time=latency)


class HintedExecutor:
    """Bundles the planner and the executor behind a hint-level interface.

    This is the surface LimeQO's offline path talks to: "run query ``q``
    under hint ``h`` with timeout ``t``" -- the same contract a real
    deployment has against PostgreSQL with ``SET enable_... = off``.
    """

    def __init__(self, enumerator: PlanEnumerator, executor: SimulatedExecutor) -> None:
        self.enumerator = enumerator
        self.executor = executor

    def plan(self, query: Query, hint_set: HintSet) -> PlanNode:
        """Plan ``query`` under ``hint_set``."""
        return self.enumerator.optimize(query, hint_set)

    def execute_with_hint(
        self, query: Query, hint_set: HintSet, timeout: Optional[float] = None
    ) -> ExecutionResult:
        """Plan and execute ``query`` under ``hint_set``."""
        plan = self.plan(query, hint_set)
        return self.executor.execute(query, plan, timeout=timeout)
