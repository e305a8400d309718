"""CLI entry point: ``python -m repro.perf``.

Measures the suite's cases, writes ``BENCH_core.json``, and (when a
baseline is given) fails with exit code 1 on a regression beyond the
threshold.  CI runs this as the perf-smoke job.
"""

from __future__ import annotations

import argparse
import sys

from .cases import build_suite
from .harness import calibration_seconds
from .report import (
    as_payload,
    compare,
    format_comparisons,
    load_report,
    write_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Time the pieces the e2e benchmark cannot isolate and "
                    "check for regressions.",
    )
    parser.add_argument(
        "--output", default="BENCH_core.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="committed baseline report to compare against",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="fail when a case is slower than THRESHOLD x the baseline "
             "(normalised units)",
    )
    parser.add_argument(
        "--cases", nargs="*", default=None,
        help="subset of case names to run (default: all)",
    )
    args = parser.parse_args(argv)

    harness = build_suite()
    print(f"running {len(args.cases or harness.case_names)} perf cases")
    calibration = calibration_seconds()
    results = harness.run(args.cases)
    for name, result in results.items():
        print(
            f"  {name:<22} best {result.best_seconds * 1e3:8.2f} ms   "
            f"norm {result.best_seconds / calibration:6.3f}   "
            + " ".join(f"{key}={value}" for key, value in result.meta.items())
        )

    payload = as_payload(results, calibration)
    path = write_report(payload, args.output)
    print(f"wrote {path}")

    if args.baseline:
        baseline = load_report(args.baseline)
        comparisons = compare(payload, baseline, threshold=args.threshold)
        print(format_comparisons(comparisons))
        regressed = [c for c in comparisons if c.regressed]
        if regressed:
            names = ", ".join(c.name for c in regressed)
            print(f"PERF REGRESSION (> {args.threshold:.1f}x baseline): {names}")
            return 1
        print("no perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
