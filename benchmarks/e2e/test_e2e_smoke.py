"""The end-to-end benchmark, run once at smoke shapes.

Checks the output contract (every declared metric printed with its unit, the
single JSON line), the correctness checks, the span table against HEAD, and
that the metrics that must not depend on timing repeat exactly for a seed
and move with it.
"""

import contextlib
import io
import json
import os

import pytest

import run

#: Values computed from the inputs alone: identical for a seed, on any machine.
DETERMINISTIC = {
    "explore_ceb": ("latency_ratio_at_budget", "censored_share"),
    "explore_tcnn": ("latency_ratio_at_budget",),
    "serve_dense": (),
    "serve_sparse": (),
    "feedback_durable": ("wal_bytes_per_row", "appended_records"),
    "adapt_drift": ("explored_cells",),
}


@pytest.fixture(scope="module")
def manifest():
    return run.load_manifest()


@pytest.fixture(scope="module")
def smoke(manifest):
    """``run.py --all --scale smoke --trace``: printed text and result.json."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = run.main(["--all", "--scale", "smoke", "--trace", "--seed", "0"])
    with open(os.path.join(run.OUT, "result.json"), encoding="utf-8") as handle:
        return status, printed.getvalue(), json.load(handle)


def test_every_declared_metric_is_printed_with_its_unit(smoke, manifest):
    status, printed, _ = smoke
    assert status == 0
    blocks = printed.split("== ")[1:]
    assert [b.split(":")[0] for b in blocks] == [w["name"] for w in manifest["workloads"]]
    for block in blocks:
        for metric in manifest["end_to_end"]:
            assert any(
                line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                for line in block.splitlines()
            ), (block.splitlines()[0], metric["name"])
    lines = [line.split() for line in printed.splitlines()]
    for metric in manifest["per_layer"]:
        assert any(
            line[:1] == [metric["name"]] and line[-1] == metric["unit"] for line in lines
        ), metric["name"]


def test_contract_line_holds_exactly_the_declared_metrics(smoke, manifest):
    _, _, result = smoke
    for workload in result["workloads"].values():
        for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(run.contract_line(workload, manifest, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [m["name"] for m in manifest[declared]]
            for metric in manifest[declared]:
                got = line["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"]
                assert isinstance(got["value"], float)
                # An end-to-end metric that can read 0 has no meaningful bound.
                assert trace or got["value"] > 0


def test_checks_pass_and_every_span_target_resolves(smoke, manifest):
    _, _, result = smoke
    for name, workload in result["workloads"].items():
        assert workload["correct"] and workload["failed"] == 0, name
        assert workload["attempted"] >= 1
        assert workload["per_layer"]["trace.absent_targets"] == 0, name
        with open(os.path.join(run.OUT, f"trace_{name}.json"), encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["absent_targets"] == []
        spans = trace["spans"]
        assert spans, name
        for _, start, end, parent, root in spans:
            assert start <= end
            if parent >= 0:
                assert spans[parent][1] <= start and end <= spans[parent][2]
                assert spans[parent][4] == root


def test_deterministic_metrics_repeat_for_a_seed_and_move_with_it(smoke):
    _, _, result = smoke
    for name, details in DETERMINISTIC.items():
        first = result["workloads"][name]
        again = run.measure(name, seed=0, seconds=0.0, trace=False, scale="smoke")
        other = run.measure(name, seed=1, seconds=0.0, trace=False, scale="smoke")

        def fingerprint(outcome):
            return [outcome["end_to_end"]["quality_ratio"]["value"]] + [
                outcome["details"][key]["value"] for key in details
            ]

        assert fingerprint(again) == fingerprint(first), name
        assert fingerprint(other) != fingerprint(first), name
        assert other["correct"], name


def test_a_renamed_span_target_degrades_the_breakdown_instead_of_raising(smoke):
    import spans
    from repro.core.predictors import ALSPredictor, Predictor

    moved = tuple(
        (layer, "repro.core.als" if attribute == "ALSPredictor.predict" else module, attribute)
        for layer, module, attribute in spans.TARGETS
    )
    with spans.tracing(moved) as trace:
        assert trace.absent == ["core.als:ALSPredictor.predict"]
        assert ALSPredictor.predict is Predictor.predict  # left unwrapped
        assert ALSPredictor.__dict__.get("predict") is None
    layers = spans.layer_metrics(trace, {}, requests=0, ticks=0)
    assert layers["core.als.busy_share"] is None
    assert layers["core.als.solve_ms_p50"] == 0.0
    assert layers["trace.absent_targets"] == 1.0
    # Outside the block the program is unmodified again.
    from repro.core.explorer import OfflineExplorer

    assert "traced" not in OfflineExplorer.step.__qualname__
