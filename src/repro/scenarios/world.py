"""Mutable ground truth behind a running scenario.

The serving stack only ever sees *observations*; the scenario engine owns
the evolving reality those observations are drawn from.  A
:class:`TenantWorld` holds one tenant's true latency matrix -- built with
the same calibrated low-rank generator as the paper's workloads -- and
mutates it as the timeline dictates: sudden or gradual data drift
(:func:`repro.workloads.shift.shift_latencies`), ETL floods
(:func:`repro.workloads.shift.etl_latency_rows`), and brand-new templates
synthesised as scaled mixtures of existing rows (so they respect the
low-rank structure matrix completion exploits).

Rows also carry a *visibility* horizon: a workload-shift tenant starts
with only its initial split visible, and ``activate_rest`` / row-adding
events advance the horizon.  Only visible rows arrive in traffic and only
visible rows are registered with the serving target.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..errors import ScenarioError
from ..workloads.matrices import generate_workload
from ..workloads.shift import etl_latency_rows, shift_latencies
from ..workloads.spec import WorkloadSpec
from .spec import TenantSpec

#: Every tenant's ground-truth shape beyond its size: mean default-plan
#: latency (seconds), default/optimal headroom and latent rank.
MEAN_DEFAULT_LATENCY = 10.0
HEADROOM = 2.5
RANK = 4


class TenantWorld:
    """One tenant's evolving ground truth."""

    def __init__(self, spec: TenantSpec, seed: int) -> None:
        self.spec = spec
        workload_spec = WorkloadSpec(
            name=f"scenario-{spec.name}",
            n_queries=spec.n_queries,
            n_hints=spec.n_hints,
            default_total=MEAN_DEFAULT_LATENCY * spec.n_queries,
            optimal_total=MEAN_DEFAULT_LATENCY * spec.n_queries / HEADROOM,
            rank=RANK,
        )
        workload = generate_workload(workload_spec, seed=seed + spec.seed)
        self.latencies: np.ndarray = workload.true_latencies
        self.names: List[str] = [f"q{i}" for i in range(spec.n_queries)]
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        # Rows visible (arriving) before tick 0; at least one.
        self.visible = max(1, int(round(spec.initial_fraction * spec.n_queries)))
        self.active = True

    # -- shape --------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Total rows in the ground truth (visible or not)."""
        return self.latencies.shape[0]

    @property
    def n_hints(self) -> int:
        """Hint-set count (fixed for the tenant's lifetime)."""
        return self.latencies.shape[1]

    def row_of(self, name: str) -> int:
        """Row index of a named query."""
        try:
            return self._index[name]
        except KeyError:
            raise ScenarioError(
                f"tenant {self.spec.name!r} has no query named {name!r}"
            ) from None

    # -- mutations (the timeline's verbs) ---------------------------------------------
    def apply_drift(
        self,
        changed_fraction: float,
        growth_factor: float,
        rng: np.random.Generator,
    ) -> int:
        """Shift the ground truth; returns how many rows changed optimum."""
        self.latencies, changed = shift_latencies(
            self.latencies, changed_fraction, growth_factor, rng
        )
        return int(changed.size)

    def _append_rows(self, rows: np.ndarray, label: str) -> List[str]:
        if self.visible != self.n_rows:
            # Visibility is a prefix: rows appended behind a held-back gap
            # would be sampled by traffic while the gap's rows were never
            # registered with the serving target (and local indices would
            # silently mis-resolve).  Spec validation rejects this shape at
            # definition time; this guard catches hand-driven worlds.
            raise ScenarioError(
                f"tenant {self.spec.name!r} still holds back rows "
                f"[{self.visible}, {self.n_rows}); fire activate_rest before "
                "adding new rows"
            )
        first = self.n_rows
        self.latencies = np.vstack([self.latencies, rows])
        new_names = [f"{label}{first + i}" for i in range(rows.shape[0])]
        for offset, name in enumerate(new_names):
            self._index[name] = first + offset
        self.names.extend(new_names)
        # Appended rows are part of current traffic by definition.
        self.visible = self.n_rows
        return new_names

    def add_etl_rows(
        self,
        count: int,
        latency: float,
        jitter: float,
        rng: np.random.Generator,
    ) -> List[str]:
        """Append ``count`` incompressible ETL rows (Figure 8's flood)."""
        rows = etl_latency_rows(self.n_hints, latency, jitter, rng, count=count)
        return self._append_rows(rows, "etl")

    def add_template_rows(self, count: int, rng: np.random.Generator) -> List[str]:
        """Append ``count`` new templates as mixtures of existing rows.

        A convex blend of two existing rows times a log-normal scale keeps
        the new rows on (approximately) the same low-rank manifold, which
        is what makes them learnable by completion once explored.
        """
        if count < 1:
            raise ScenarioError(f"template count must be >= 1, got {count}")
        a = rng.integers(0, self.n_rows, size=count)
        b = rng.integers(0, self.n_rows, size=count)
        mix = rng.uniform(0.2, 0.8, size=(count, 1))
        scale = rng.lognormal(mean=0.0, sigma=0.4, size=(count, 1))
        rows = (mix * self.latencies[a] + (1.0 - mix) * self.latencies[b]) * scale
        return self._append_rows(np.maximum(rows, 1e-4), "new")

    def activate_rest(self) -> List[str]:
        """Make every held-back row visible (the late 30% arriving, Fig 9)."""
        newly = self.names[self.visible:self.n_rows]
        self.visible = self.n_rows
        return newly

    # -- reference quantities ------------------------------------------------------------
    def default_latencies(self, rows) -> np.ndarray:
        """Current true latency of the default plan for ``rows``."""
        return self.latencies[np.asarray(rows, dtype=np.int64), 0]

    def optimal_latencies(self, rows) -> np.ndarray:
        """Current true per-row optimal latency for ``rows``."""
        return self.latencies[np.asarray(rows, dtype=np.int64)].min(axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TenantWorld({self.spec.name!r}, {self.n_rows}x{self.n_hints}, "
            f"visible={self.visible}, active={self.active})"
        )
