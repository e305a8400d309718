"""Performance measurement and regression tracking (``repro.perf``).

Run the suite from the command line::

    PYTHONPATH=src python -m repro.perf \
        --baseline benchmarks/baselines/core_baseline.json

See ``docs/performance.md`` for the case inventory and how to read
``BENCH_core.json``, and ``docs/testing.md`` for what each harness measures.
"""

from .cases import build_suite
from .harness import PerfCase, PerfHarness, PerfResult, calibration_seconds
from .report import (
    Comparison,
    as_payload,
    compare,
    format_comparisons,
    load_report,
    write_report,
)

__all__ = [
    "build_suite",
    "PerfCase",
    "PerfHarness",
    "PerfResult",
    "calibration_seconds",
    "Comparison",
    "as_payload",
    "compare",
    "format_comparisons",
    "load_report",
    "write_report",
]
