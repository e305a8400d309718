"""Shared helpers for the benchmark harness.

Every benchmark runs its experiment exactly once (``benchmark.pedantic``
with one round, :func:`run_once`): they are long-running simulations, not
micro-benchmarks.  Run them with ``pytest benchmarks/ -s`` to see what
they print.
"""

from __future__ import annotations

import json
import os

from repro.config import TCNNConfig

# A deliberately small TCNN so the neural policies stay tractable on a
# CPU-only numpy substrate.  The architecture (tree conv -> embeddings ->
# fully connected head, censored loss, Adam) is identical to the paper's;
# only widths and epoch counts are reduced.
BENCH_TCNN_CONFIG = TCNNConfig(
    channels=(8,),
    hidden_units=(16,),
    dropout=0.2,
    learning_rate=3e-3,
    batch_size=128,
    max_epochs=6,
    convergence_window=3,
)


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark and return it."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_series(title, series, x_values, x_label="x default time", fmt="{:.1f}"):
    """Print a named family of series sampled at shared x positions."""
    from repro.experiments.reporting import format_series_table

    print(f"\n=== {title} ===")
    print(format_series_table(series, x_values, x_label=x_label, value_format=fmt))


def write_bench_json(name, payload):
    """Persist a benchmark's result dict as ``BENCH_<name>.json``.

    The perf trajectory across PRs is tracked by diffing these files; CI
    uploads every ``BENCH_*.json`` as a workflow artifact.  Output lands in
    ``$BENCH_OUTPUT_DIR`` (default: the working directory the suite runs
    from, i.e. the repo root under the tier-1 command).
    """
    out_dir = os.environ.get("BENCH_OUTPUT_DIR", os.getcwd())
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=float)
        handle.write("\n")
    return path
