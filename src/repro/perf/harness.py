"""A small timeit-style harness for the library's named hot paths.

The harness exists so performance claims are *measured and tracked*, not
asserted once in a PR description and forgotten.  Each :class:`PerfCase`
wraps one hot path behind a setup/run split (setup builds workloads and
models off the clock; run times only the path under measurement).  The
result of a run is serialised by :mod:`repro.perf.report` into
``BENCH_core.json`` and compared against a committed baseline.

Timings are reported both raw and *normalised* by a calibration
measurement (a fixed numpy workload timed on the same machine, in the same
process).  Raw seconds are not portable across machines; normalised units
mostly are, which is what lets CI compare against a baseline committed
from a different box without tripping on hardware speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..errors import PerfError

#: Timed runs of each case; its result keeps the best and the mean.
REPEATS = 3


@dataclass
class PerfResult:
    """Timing of one case: best and mean wall-clock seconds over repeats."""

    name: str
    best_seconds: float
    mean_seconds: float
    repeats: int
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSON report."""
        payload: Dict[str, Any] = {
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "repeats": self.repeats,
        }
        if self.meta:
            payload["meta"] = self.meta
        return payload


@dataclass
class PerfCase:
    """One named hot path.

    ``setup`` runs once, off the clock, and its return value is passed to
    ``run`` on every repeat.  ``run`` may return a dict of metadata that is
    attached to the result (e.g. solver iteration counts), which ends up in
    the JSON report.
    """

    name: str
    run: Callable[[Any], Optional[Dict[str, Any]]]
    setup: Optional[Callable[[], Any]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise PerfError("perf case needs a non-empty name")

    def measure(self) -> PerfResult:
        """Time the case: best of :data:`REPEATS` runs plus the mean."""
        state = self.setup() if self.setup is not None else None
        timings: List[float] = []
        meta: Dict[str, Any] = {}
        for _ in range(REPEATS):
            start = time.perf_counter()
            extra = self.run(state)
            timings.append(time.perf_counter() - start)
            if extra:
                meta = dict(extra)
        return PerfResult(
            name=self.name,
            best_seconds=float(min(timings)),
            mean_seconds=float(np.mean(timings)),
            repeats=REPEATS,
            meta=meta,
        )


class PerfHarness:
    """An ordered registry of perf cases."""

    def __init__(self) -> None:
        self._cases: Dict[str, PerfCase] = {}

    @property
    def case_names(self) -> List[str]:
        """Registered case names, in registration order."""
        return list(self._cases)

    def add(
        self,
        name: str,
        run: Callable[[Any], Optional[Dict[str, Any]]],
        setup: Optional[Callable[[], Any]] = None,
    ) -> PerfCase:
        """Register a case; names must be unique."""
        if name in self._cases:
            raise PerfError(f"duplicate perf case {name!r}")
        case = self._cases[name] = PerfCase(name=name, run=run, setup=setup)
        return case

    def run(self, names: Optional[List[str]] = None) -> Dict[str, PerfResult]:
        """Measure the selected (default: all) cases in registration order."""
        if names is None:
            selected = list(self._cases.values())
        else:
            missing = [n for n in names if n not in self._cases]
            if missing:
                raise PerfError(f"unknown perf case(s): {missing}")
            selected = [self._cases[n] for n in names]
        return {case.name: case.measure() for case in selected}


def calibration_seconds() -> float:
    """Time a fixed numpy workload as a machine-speed yardstick.

    The workload (dense matmul + solve + fancy-indexed scatter on fixed
    shapes) exercises the same primitive mix as the library's hot paths,
    so ``case_seconds / calibration_seconds`` is roughly machine-
    independent.  Best of three, to shed scheduler noise.
    """
    rng = np.random.default_rng(0)
    a = rng.random((240, 240))
    b = rng.random((240, 240))
    rows = rng.integers(0, 240, size=4000)
    cols = rng.integers(0, 240, size=4000)
    vals = rng.random(4000)
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(8):
            c = a @ b
            c[rows, cols] = vals
            np.linalg.solve(a + 240 * np.eye(240), b)
        timings.append(time.perf_counter() - start)
    return float(min(timings))
