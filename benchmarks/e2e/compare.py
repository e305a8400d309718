"""Compare run-sets of a parent (A) and a change (B), pair by pair.

    python3 benchmarks/e2e/compare.py A.json B.json [A2.json B2.json ...]

Each file is an ``out/result.json`` written by ``run.py``.  One row per
(end-to-end metric, workload): both medians with their quartiles and a
verdict from the metric's own bound in ``BENCHMARK.json``:

* ``better``      at least ten pairs are decided, B wins at least 9/10 of them
                  (ties count for neither) and the medians differ by more than
                  A's inter-quartile distance;
* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  neither, and A's spread is wider than the bound, unless
                  every B run beats every A run;
* ``unchanged``   otherwise.

With one pair the quartiles are those of the rounds inside each run.  Every
ratio is printed with its base.  Exits 1 on any ``worse`` and on any rise in
failed operations.
"""

from __future__ import annotations

import json
import sys
from typing import List

import numpy as np

from run import load_manifest


#: Fewer pairs than this cannot carry a claim of a gain, only show a regression.
MIN_PAIRS = 10


def verdict(a: List[float], b: List[float], a_iqr: float, bound: float, higher: bool) -> str:
    """Apply the rule above to the per-run values of one metric on one workload."""
    sign = 1.0 if higher else -1.0
    gains = [sign * (y - x) for x, y in zip(a, b)]
    wins = sum(g > 0 for g in gains)
    decided = sum(g != 0 for g in gains)
    a_med, b_med = float(np.median(a)), float(np.median(b))
    gain = sign * (b_med - a_med)
    if gain > a_iqr and decided >= MIN_PAIRS and wins >= 0.9 * decided:
        return "better"
    if -gain > bound * abs(a_med):
        return "worse"
    every_b_beats_a = min(sign * y for y in b) > max(sign * x for x in a)
    if a_iqr > bound * abs(a_med) and not every_b_beats_a:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else list(argv)
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__)
        return 2
    run_sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            run_sets.append(json.load(handle))
    parents, changes = run_sets[0::2], run_sets[1::2]
    manifest = load_manifest()
    status = 0
    print(f"{len(parents)} pair(s); A = parent, B = change; medians [q1, q3]")
    for workload in (w["name"] for w in manifest["workloads"]):
        if not all(workload in rs["workloads"] for rs in run_sets):
            continue
        a_runs = [rs["workloads"][workload] for rs in parents]
        b_runs = [rs["workloads"][workload] for rs in changes]
        a_failed = sum(r["failed"] for r in a_runs)
        b_failed = sum(r["failed"] for r in b_runs)
        if b_failed > a_failed:
            status = 1
        print(
            f"== {workload}: failed A {a_failed} of {sum(r['attempted'] for r in a_runs)}, "
            f"B {b_failed} of {sum(r['attempted'] for r in b_runs)}"
            + ("  <- more failures" if b_failed > a_failed else "")
        )
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            a = [r["end_to_end"][name] for r in a_runs]
            b = [r["end_to_end"][name] for r in b_runs]
            a_values = [m["value"] for m in a]
            b_values = [m["value"] for m in b]
            if len(a) > 1:
                a_q1, a_q3 = np.percentile(a_values, [25, 75])
                b_q1, b_q3 = np.percentile(b_values, [25, 75])
            else:
                a_q1, a_q3, b_q1, b_q3 = a[0]["q1"], a[0]["q3"], b[0]["q1"], b[0]["q3"]
            a_med, b_med = float(np.median(a_values)), float(np.median(b_values))
            result = verdict(
                a_values, b_values, a_q3 - a_q1, metric["bound"], metric["better"] == "higher"
            )
            if result == "worse":
                status = 1
            print(
                f"  {name:<14} A {a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]  "
                f"B {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}] {metric['unit']}  "
                f"B/A {b_med / a_med:.4f} (base A = {a_med:.6g}, "
                f"bound {metric['bound']:.0%}, {metric['better']} is better)  {result}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
