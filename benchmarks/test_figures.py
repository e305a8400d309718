"""The paper's Table 1 and Figures 5-18, one row of :data:`FIGURES` each.

A row binds a driver of :mod:`repro.experiments.figures` to its benchmark-scale
arguments (``functools.partial`` with explicit keywords, so the option audit
sees what is set), names the output fields that are wall-clock timings, and
holds the paper's claim: it prints the figure and asserts its shape.  Every
figure's other outputs are pinned in :data:`PINNED` (``docs/testing.md``,
"Pinned figures").  One figure: ``pytest benchmarks/test_figures.py -k figure9 -s``.
"""

import json
import math
import pathlib
from functools import partial
from typing import Callable, NamedTuple, Tuple

import numpy as np
import pytest
from _bench_utils import BENCH_TCNN_CONFIG, print_series, run_once

from repro.experiments import figures
from repro.experiments.reporting import format_table

# Per-workload scales keep each matrix around 50-120 queries so the neural
# policies remain tractable; the x-axis is still [1/4 ... 4] x default time.
FIGURE5_SCALES = {"ceb": 0.02, "job": 0.5, "stack": 0.01, "dsb": 0.06}
FIGURE5_POLICIES = ("qo-advisor", "bao-cache", "random", "greedy", "limeqo", "limeqo+")


def sample_at(curve, xs):
    """A step curve's latency at each x (its last point at or before x)."""
    times = np.asarray(curve["times"])
    lats = np.asarray(curve["latencies"])
    return [lats[max(np.searchsorted(times, x, side="right") - 1, 0)] for x in xs]


def print_latencies(title, result, series):
    """Print ``series`` against ``result``'s checkpoints, as multiples of its
    default workload time."""
    print_series(title, series, np.asarray(result["checkpoints"]) / result["default_total"])


def optimal_series(result):
    """The optimal total as a series over ``result``'s checkpoints."""
    return [result["optimal_total"]] * len(result["checkpoints"])


def latency_series(result):
    """Every top-level entry of ``result`` that carries ``latencies``."""
    return {
        name: payload["latencies"]
        for name, payload in result.items()
        if isinstance(payload, dict) and "latencies" in payload
    }


# The paper's claims: each prints its figure and asserts its shape.
def claim_table1(result):
    rows = [
        [name, row["n_queries"], f"{row['default_total_s']:.0f}",
         f"{row['optimal_total_s']:.0f}", f"{row['headroom']:.2f}",
         f"{row['paper_default_s']:.0f}", f"{row['paper_optimal_s']:.0f}",
         f"{row['exhaustive_exploration_s'] / 86400:.1f}"]
        for name, row in result.items()
    ]
    print("\n=== Table 1: workloads (measured vs paper) ===")
    print(format_table(
        ["workload", "queries", "default(s)", "optimal(s)", "headroom",
         "paper default(s)", "paper optimal(s)", "exhaustive (days)"],
        rows,
    ))
    # Shape checks: calibration matches the paper's totals and headroom.
    for name, row in result.items():
        assert abs(row["default_total_s"] - row["paper_default_s"]) / row["paper_default_s"] < 0.05
        assert abs(row["optimal_total_s"] - row["paper_optimal_s"]) / row["paper_optimal_s"] < 0.10
    # Exhaustively executing CEB takes on the order of days (the "12 days").
    assert result["ceb"]["exhaustive_exploration_s"] > 5 * result["ceb"]["default_total_s"]


def claim_figure5(results):
    multiples = [0.25, 0.5, 1.0, 2.0, 4.0]
    for workload, payload in results.items():
        series = {
            policy: payload["policies"][policy]["latencies"] for policy in FIGURE5_POLICIES
        }
        series["optimal"] = [payload["optimal_total"]] * len(multiples)
        print_series(
            f"Figure 5 ({workload}): total latency (s) vs exploration time", series, multiples
        )
        default = payload["default_total"]
        optimal = payload["optimal_total"]
        limeqo = np.asarray(payload["policies"]["limeqo"]["latencies"])
        random_ = np.asarray(payload["policies"]["random"]["latencies"])
        greedy = np.asarray(payload["policies"]["greedy"]["latencies"])
        # Shape checks: LimeQO improves on the default, never loses to the
        # oracle, and beats Random/Greedy by the 2x-default checkpoint.
        assert limeqo[-1] < default
        assert limeqo[-1] >= optimal - 1e-6
        assert limeqo[3] <= min(random_[3], greedy[3]) * 1.10


def claim_figure6(result):
    default = result["default_total"]
    # Sample every curve at shared fractions of the budget for the printout.
    fractions = np.linspace(0.0, 2.0, 9)
    series = {
        policy: sample_at(curve, fractions * default)
        for policy, curve in result["curves"].items()
    }
    series["optimal"] = [result["optimal_total"]] * len(fractions)
    print_series("Figure 6 (CEB): latency (s) vs exploration time", series, fractions)
    limeqo_final = series["limeqo"][-1]
    random_final = series["random"][-1]
    assert limeqo_final <= random_final * 1.05
    assert all(
        b <= a + 1e-9
        for a, b in zip(result["curves"]["limeqo"]["latencies"],
                        result["curves"]["limeqo"]["latencies"][1:])
    )


def claim_figure7(result):
    series = {
        name: result[name]["overheads"] for name in ("limeqo", "limeqo+", "limeqo+(gpu-estimate)")
    }
    print_series(
        "Figure 7 (CEB): cumulative model overhead (s) vs exploration time (s)",
        series, result["checkpoints"], x_label="exploration time (s)", fmt="{:.2f}",
    )
    print(f"overhead ratio limeqo+ / limeqo: {result['overhead_ratio']:.0f}x "
          "(paper reports ~360x with PyTorch on the full CEB matrix)")
    # The neural method's overhead must dwarf the linear method's.
    assert result["overhead_ratio"] > 10
    assert series["limeqo"][-1] < 5.0


def claim_figure8(result):
    series = {name: result[name]["latencies"] for name in ("greedy", "limeqo")}
    print_latencies("Figure 8 (Stack + ETL query): total latency (s)", result, series)
    # LimeQO learns the ETL query has no headroom; Greedy keeps probing it,
    # so LimeQO is at least as good by the end of the budget.
    assert series["limeqo"][-1] <= series["greedy"][-1] * 1.05


def claim_figure9(result):
    series = latency_series(result)
    print_latencies("Figure 9 (CEB, workload shift): total latency (s)", result, series)
    # LimeQO with the shift recovers: by the end of the budget it is close to
    # (or better than) Greedy without any shift, and clearly better than
    # Greedy facing the same shift.
    assert series["limeqo (with shift)"][-1] <= series["greedy (with shift)"][-1] * 1.05
    assert series["limeqo (with shift)"][-1] <= result["default_total"]


def claim_figure10(result):
    rows = [
        [interval, f"{expected * 100:.1f}%", f"{simulated * 100:.1f}%"]
        for interval, expected, simulated in zip(
            result["intervals"], result["expected"], result["simulated"]
        )
    ]
    print("\n=== Figure 10: optimal-hint drift vs data age ===")
    print(format_table(["interval", "paper", "simulated"], rows))
    # Drift grows with the interval and the two-year point is ~21%.
    assert result["simulated"] == sorted(result["simulated"]) or all(
        abs(a - b) < 0.05 for a, b in zip(result["simulated"], sorted(result["simulated"]))
    )
    assert abs(result["simulated"][-1] - 0.21) < 0.08


def claim_figure11(result):
    series = latency_series(result)
    print_latencies("Figure 11 (Stack 2017 -> 2019 data shift): total latency (s)", result, series)
    carried = result["limeqo (data shift)"]["carried_over_latency"]
    print(f"latency served with re-verified 2017 hints before new exploration: {carried:.1f} s "
          f"(default {result['default_total']:.1f} s)")
    # Carrying over the old hints already beats the new default, and the
    # shifted run ends close to a fresh LimeQO run on the 2019 data.
    assert carried <= result["default_total"] * 1.001
    fresh = series["limeqo"][-1]
    shifted = series["limeqo (data shift)"][-1]
    assert shifted <= fresh * 1.15


def claim_figure12(result):
    series = {name: result[name]["latencies"] for name in ("tcnn", "limeqo+")}
    series["optimal"] = optimal_series(result)
    print_latencies("Figure 12 (CEB): TCNN vs LimeQO+ latency (s)", result, series)
    # The embeddings should not hurt: LimeQO+ ends at or below the pure TCNN.
    assert series["limeqo+"][-1] <= series["tcnn"][-1] * 1.10
    assert series["limeqo+"][-1] < result["default_total"]


def claim_figure13(result):
    series = {name: result[name]["overheads"] for name in ("tcnn", "limeqo+")}
    print_series(
        "Figure 13 (CEB): cumulative overhead (s) vs exploration time (s)",
        series, result["checkpoints"], x_label="exploration time (s)", fmt="{:.2f}",
    )
    # The embedding layers add only modest overhead on top of the TCNN
    # (the paper reports ~20 extra minutes on top of ~50).
    assert series["limeqo+"][-1] <= series["tcnn"][-1] * 3.0 + 5.0
    assert series["limeqo+"][-1] > 0


def claim_figure14(result):
    workload_sv = np.asarray(result["workload_singular_values"])
    random_sv = np.asarray(result["random_singular_values"])
    indices = list(range(0, len(workload_sv), 5))
    series = {
        "ceb matrix": (workload_sv / workload_sv[0])[indices],
        "random matrix": (random_sv / random_sv[0])[indices],
    }
    print_series(
        "Figure 14: normalised singular values (every 5th index)",
        series, indices, x_label="singular value index", fmt="{:.3f}",
    )
    print(f"effective rank (95% energy): {result['effective_rank_95']}")
    # The workload matrix is effectively low rank; the random matrix is not.
    assert result["effective_rank_95"] <= 10
    assert workload_sv[5] / workload_sv[0] < random_sv[5] / random_sv[0]


def claim_figure15(result):
    series = {f"rank={r}": payload["latencies"] for r, payload in result["ranks"].items()}
    series["optimal"] = optimal_series(result)
    print_latencies("Figure 15: LimeQO latency (s) by rank", result, series)
    # Every rank improves on the default, and mid ranks (3-9) end close to
    # each other (the paper's observation that performance stabilises).
    for payload in result["ranks"].values():
        assert payload["latencies"][-1] < result["default_total"]
    finals = [result["ranks"][r]["latencies"][-1] for r in (3, 5, 7, 9)]
    # Mid ranks land in the same ballpark (the paper's stabilisation claim,
    # with slack for the small scaled-down matrix)...
    assert (max(finals) - min(finals)) / min(finals) < 0.6
    # ...and the best mid rank is at least as good as rank 1.
    assert min(finals) <= result["ranks"][1]["latencies"][-1] * 1.05


def claim_figure16(result):
    series = latency_series(result)
    series["optimal"] = optimal_series(result)
    print_latencies("Figure 16: censored vs uncensored LimeQO latency (s)", result, series)
    # Censoring never hurts the final result materially.
    assert series["limeqo"][-1] <= series["limeqo (no censoring)"][-1] * 1.10
    assert series["limeqo"][-1] < result["default_total"]


def claim_figure17(result):
    rows = [
        [name, f"{fill:.2f}", f"{mse:.3e}", f"{seconds * 1000:.1f}"]
        for name, payload in result.items()
        for fill, mse, seconds in zip(payload["fill"], payload["mse"], payload["seconds"])
    ]
    print("\n=== Figure 17: matrix completion techniques on JOB ===")
    print(format_table(["method", "fill", "holdout MSE", "time (ms)"], rows))
    als_time = np.mean(result["als"]["seconds"])
    nuc_time = np.mean(result["nuc"]["seconds"])
    print(f"\nALS is {nuc_time / max(als_time, 1e-9):.1f}x faster than NUC on average")
    # ALS is the cheapest; NUC is accurate but slow -- the paper's trade-off.
    assert als_time < nuc_time
    # ALS accuracy is in the same ballpark as (or better than) SVT at the
    # denser fills, where both are defined.
    als_mse = result["als"]["mse"][-1]
    svt_mse = result["svt"]["mse"][-1]
    assert np.isfinite(als_mse)
    assert als_mse <= svt_mse * 5 or not np.isfinite(svt_mse)


def claim_figure18(result):
    budget = result["total_budget"]
    fractions = np.linspace(0.0, 1.0, 9)
    series = {name: sample_at(result[name], fractions * budget) for name in ("bayesqo", "limeqo")}
    series["optimal"] = [result["optimal_total"]] * len(fractions)
    print_series(
        "Figure 18 (JOB): total latency (s) vs offline optimisation time",
        series, fractions * budget, x_label="offline time (s)",
    )
    # LimeQO, allocating the same total budget across the workload, ends at
    # or below BayesQO's per-query even split.
    assert series["limeqo"][-1] <= series["bayesqo"][-1] * 1.02
    assert series["limeqo"][-1] < result["default_total"]


class Figure(NamedTuple):
    run: Callable[[], dict]
    claim: Callable[[dict], None]
    #: Output fields (at any depth) that are wall-clock timings: printed and
    #: bounded by the claim, never pinned.
    timings: Tuple[str, ...] = ()


FIGURES = {
    "table1": Figure(partial(figures.table1_workload_summary, scale=1.0), claim_table1),
    "figure5": Figure(
        partial(figures.figure5_performance, scales=FIGURE5_SCALES, policies=FIGURE5_POLICIES,
                tcnn_config=BENCH_TCNN_CONFIG, max_steps=40),
        claim_figure5,
    ),
    "figure6": Figure(
        partial(figures.figure6_ceb_curves, scale=0.03, tcnn_config=BENCH_TCNN_CONFIG),
        claim_figure6,
    ),
    "figure7": Figure(
        partial(figures.figure7_overhead, scale=0.025, tcnn_config=BENCH_TCNN_CONFIG),
        claim_figure7, timings=("overheads", "overhead_ratio"),
    ),
    "figure8": Figure(partial(figures.figure8_etl, scale=0.03), claim_figure8),
    "figure9": Figure(partial(figures.figure9_workload_shift, scale=0.04), claim_figure9),
    "figure10": Figure(partial(figures.figure10_incremental_drift, scale=0.05), claim_figure10),
    "figure11": Figure(partial(figures.figure11_data_shift, scale=0.04), claim_figure11),
    "figure12": Figure(
        partial(figures.figure12_tcnn_vs_limeqo_plus, scale=0.02, tcnn_config=BENCH_TCNN_CONFIG),
        claim_figure12,
    ),
    "figure13": Figure(
        partial(figures.figure13_overhead_tcnn, scale=0.02, tcnn_config=BENCH_TCNN_CONFIG),
        claim_figure13, timings=("overheads",),
    ),
    "figure14": Figure(partial(figures.figure14_singular_values, scale=1.0), claim_figure14),
    "figure15": Figure(partial(figures.figure15_rank_ablation, scale=0.04), claim_figure15),
    "figure16": Figure(partial(figures.figure16_censored_ablation, scale=0.04), claim_figure16),
    "figure17": Figure(
        partial(figures.figure17_mc_comparison, scale=1.0), claim_figure17, timings=("seconds",)
    ),
    "figure18": Figure(
        partial(figures.figure18_bayesqo, scale=1.0, per_query_budget=3.0), claim_figure18
    ),
}

#: Every figure's non-timing outputs, as :func:`outputs` gives them: recorded
#: with the drivers as they stood before this table replaced the per-figure
#: benchmark files, and bit-equal in four fresh processes under
#: OPENBLAS_NUM_THREADS 1, 2 and unset.  ``python benchmarks/test_figures.py
#: <figure> ...`` re-records figures (all of them with none named).
PINNED_PATH = pathlib.Path(__file__).with_name("baselines") / "figures.json"
PINNED = json.loads(PINNED_PATH.read_text())
#: How far a pinned float may move.  Another BLAS build or CPU kernel rounds
#: an ALS solve or an SVD differently in the last bits, which the pins let
#: pass; keys, lengths, integers and strings are held exactly, and a changed
#: pick moves a latency by far more than this.
REL_TOL = 1e-9


def outputs(value, timings):
    """``value`` as JSON holds it, with the ``timings`` keys left out at any
    depth: keys as strings, arrays and tuples as lists, numpy scalars as
    Python ones."""
    if isinstance(value, dict):
        return {str(key): outputs(item, timings) for key, item in value.items()
                if key not in timings}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [outputs(item, timings) for item in value]
    return value.item() if isinstance(value, np.generic) else value


def moved(got, pinned, path):
    """The paths under which ``got`` differs from ``pinned`` (both as
    :func:`outputs` gives them): a float by more than :data:`REL_TOL`,
    anything else at all."""
    if isinstance(got, dict) and isinstance(pinned, dict) and got.keys() == pinned.keys():
        return [p for key in pinned for p in moved(got[key], pinned[key], f"{path}/{key}")]
    if isinstance(got, list) and isinstance(pinned, list) and len(got) == len(pinned):
        return [p for i, pair in enumerate(zip(got, pinned)) for p in moved(*pair, f"{path}[{i}]")]
    if isinstance(got, float) and isinstance(pinned, float):
        both_nan = math.isnan(got) and math.isnan(pinned)
        same = both_nan or math.isclose(got, pinned, rel_tol=REL_TOL)
    else:
        same = type(got) is type(pinned) and got == pinned
    return [] if same else [path]


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(name, benchmark):
    figure = FIGURES[name]
    result = run_once(benchmark, figure.run)
    figure.claim(result)
    got, pinned = outputs(result, figure.timings), PINNED[name]
    paths = {key: moved(got.get(key), pinned.get(key), key) for key in set(got) | set(pinned)}
    paths = {key: found for key, found in paths.items() if found}
    assert not paths, (
        f"{name}: the outputs under {sorted(paths)} moved from PINNED (first at "
        f"{[paths[key][0] for key in sorted(paths)]}); a change that moves them on "
        "purpose re-records the pin and gives the reason"
    )


def test_pins_hold_every_output_but_the_timings():
    base = outputs({"a": {"xs": np.array([1.0, 2.0]), "seconds": [0.5]}, "n": np.int64(3),
                    "seconds": 1.0}, ("seconds",))
    assert base == {"a": {"xs": [1.0, 2.0]}, "n": 3}
    assert type(base["n"]) is int
    assert moved(base, base, "f") == []
    # Last-bit rounding passes; a relative move of 1e-6 does not.
    assert moved({"a": {"xs": [np.nextafter(1.0, 2.0), 2.0]}, "n": 3}, base, "f") == []
    assert moved({"a": {"xs": [1.0, 2.000002]}, "n": 3}, base, "f") == ["f/a/xs[1]"]
    # Integers, types, lengths and keys are exact.
    for other, path in (({"a": {"xs": [1.0, 2.0]}, "n": 4}, "f/n"),
                        ({"a": {"xs": [1.0, 2.0]}, "n": 3.0}, "f/n"),
                        ({"a": {"xs": [1.0]}, "n": 3}, "f/a/xs"),
                        ({"a": {"xs": [1.0, 2.0], "ys": []}, "n": 3}, "f/a"),
                        ({"a": {"xs": [1.0, 2.0]}}, "f")):
        assert moved(other, base, "f") == [path]
    assert moved([float("nan")], [float("nan")], "f") == []
    assert moved([True], [1], "f") == ["f[0]"]


if __name__ == "__main__":
    import sys

    for name in sys.argv[1:] or FIGURES:
        PINNED[name] = outputs(FIGURES[name].run(), FIGURES[name].timings)
    PINNED_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(PINNED[name], sort_keys=True)}" for name in FIGURES
    ) + "\n}\n")
