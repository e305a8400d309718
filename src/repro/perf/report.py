"""Serialisation and regression comparison for perf-harness runs.

The report format (``BENCH_core.json``) stores, per case, raw seconds and
*normalised* units (seconds divided by a same-process calibration
measurement, see :func:`repro.perf.harness.calibration_seconds`).
Regression checks compare normalised units so a committed baseline from
one machine remains meaningful on another; the threshold is deliberately
generous (2x by default) because normalisation removes most -- not all --
of the hardware variance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import PerfError
from .harness import PerfResult

SCHEMA_VERSION = 1


def as_payload(results: Dict[str, PerfResult], calibration: float) -> Dict[str, Any]:
    """Build the JSON-ready report dictionary for a harness run."""
    if calibration <= 0:
        raise PerfError(f"calibration must be > 0, got {calibration}")
    cases = {}
    for name, result in results.items():
        entry = result.as_dict()
        entry["normalized"] = result.best_seconds / calibration
        cases[name] = entry
    return {
        "schema": SCHEMA_VERSION,
        "calibration_seconds": calibration,
        "cases": cases,
    }


def write_report(payload: Dict[str, Any], path: str) -> str:
    """Write a payload as pretty JSON; returns the path."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=float)
        handle.write("\n")
    return path


def load_report(path: str) -> Dict[str, Any]:
    """Read a report produced by :func:`write_report`."""
    with open(path) as handle:
        payload = json.load(handle)
    if "cases" not in payload:
        raise PerfError(f"{path} is not a perf report (no 'cases' key)")
    return payload


@dataclass
class Comparison:
    """Outcome of comparing one case against the baseline."""

    name: str
    current: float
    baseline: Optional[float]
    threshold: float

    @property
    def ratio(self) -> Optional[float]:
        """current / baseline in normalised units (None for new cases)."""
        if self.baseline is None or self.baseline <= 0:
            return None
        return self.current / self.baseline

    @property
    def regressed(self) -> bool:
        """True when the case is slower than ``threshold`` x the baseline."""
        ratio = self.ratio
        return ratio is not None and ratio > self.threshold


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = 2.0,
) -> List[Comparison]:
    """Compare two reports case by case (normalised units).

    Cases present only in ``current`` get ``baseline=None`` and never count
    as regressions (new hot paths should not fail the gate that introduces
    them); cases present only in the baseline are ignored.
    """
    if threshold <= 1.0:
        raise PerfError(f"threshold must be > 1, got {threshold}")
    comparisons = []
    baseline_cases = baseline.get("cases", {})
    for name, entry in current.get("cases", {}).items():
        base_entry = baseline_cases.get(name)
        comparisons.append(
            Comparison(
                name=name,
                current=float(entry["normalized"]),
                baseline=(
                    None if base_entry is None else float(base_entry["normalized"])
                ),
                threshold=threshold,
            )
        )
    return comparisons


def format_comparisons(comparisons: List[Comparison]) -> str:
    """A fixed-width text table of the comparison outcome."""
    lines = [
        f"{'case':<22} {'current':>10} {'baseline':>10} {'ratio':>7}  status",
        "-" * 60,
    ]
    for c in comparisons:
        base = "--" if c.baseline is None else f"{c.baseline:.3f}"
        ratio = "--" if c.ratio is None else f"{c.ratio:.2f}x"
        status = "REGRESSED" if c.regressed else ("new" if c.baseline is None else "ok")
        lines.append(
            f"{c.name:<22} {c.current:>10.3f} {base:>10} {ratio:>7}  {status}"
        )
    return "\n".join(lines)
