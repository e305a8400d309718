"""Tests for the repro.perf harness, report format, and regression gate."""

import json

import numpy as np
import pytest

from repro.errors import PerfError
from repro.perf import (
    PerfCase,
    PerfHarness,
    as_payload,
    build_suite,
    calibration_seconds,
    compare,
    format_comparisons,
    load_report,
    write_report,
)
from repro.perf.harness import PerfResult
from repro.perf.__main__ import main as perf_main


class TestHarness:
    def test_case_measures_best_and_mean(self):
        calls = []

        def run(state):
            calls.append(state)
            return {"payload": state}

        case = PerfCase(name="toy", run=run, setup=lambda: 42, repeats=3)
        result = case.measure()
        assert calls == [42, 42, 42]
        assert result.repeats == 3
        assert result.best_seconds <= result.mean_seconds
        assert result.meta == {"payload": 42}

    def test_case_validation(self):
        with pytest.raises(PerfError):
            PerfCase(name="", run=lambda s: None)
        with pytest.raises(PerfError):
            PerfCase(name="x", run=lambda s: None, repeats=0)

    def test_harness_rejects_duplicate_names(self):
        harness = PerfHarness()
        harness.add("a", lambda s: None)
        with pytest.raises(PerfError):
            harness.add("a", lambda s: None)

    def test_harness_runs_selected_cases(self):
        harness = PerfHarness()
        harness.add("a", lambda s: None)
        harness.add("b", lambda s: None)
        results = harness.run(["b"])
        assert list(results) == ["b"]
        with pytest.raises(PerfError):
            harness.run(["nope"])

    def test_calibration_is_positive_and_repeatable_scale(self):
        value = calibration_seconds(repeats=2)
        assert value > 0


class TestReport:
    def _results(self):
        return {
            "fast": PerfResult("fast", 0.001, 0.0012, 3),
            "slow": PerfResult("slow", 0.1, 0.11, 3, meta={"n": 5}),
        }

    def test_payload_and_roundtrip(self, tmp_path):
        payload = as_payload(self._results(), calibration=0.01, scale="smoke")
        assert payload["cases"]["fast"]["normalized"] == pytest.approx(0.1)
        assert payload["cases"]["slow"]["meta"] == {"n": 5}
        path = write_report(payload, str(tmp_path / "BENCH_core.json"))
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(payload))

    def test_payload_rejects_bad_calibration(self):
        with pytest.raises(PerfError):
            as_payload(self._results(), calibration=0.0)

    def test_load_rejects_non_reports(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(PerfError):
            load_report(str(path))

    def test_compare_flags_regressions_only_beyond_threshold(self):
        current = as_payload(
            {"a": PerfResult("a", 0.03, 0.03, 1), "b": PerfResult("b", 0.01, 0.01, 1)},
            calibration=0.01,
        )
        baseline = as_payload(
            {"a": PerfResult("a", 0.01, 0.01, 1), "b": PerfResult("b", 0.01, 0.01, 1)},
            calibration=0.01,
        )
        comparisons = {c.name: c for c in compare(current, baseline, threshold=2.0)}
        assert comparisons["a"].regressed
        assert comparisons["a"].ratio == pytest.approx(3.0)
        assert not comparisons["b"].regressed

    def test_compare_treats_new_cases_as_ok(self):
        current = as_payload({"new": PerfResult("new", 0.5, 0.5, 1)}, calibration=0.01)
        baseline = as_payload({}, calibration=0.01)
        (comparison,) = compare(current, baseline)
        assert comparison.baseline is None
        assert not comparison.regressed
        assert "new" in format_comparisons([comparison])

    def test_compare_validates_threshold(self):
        payload = as_payload({}, calibration=0.01)
        with pytest.raises(PerfError):
            compare(payload, payload, threshold=1.0)


class TestSuite:
    def test_suite_registers_the_named_hot_paths(self):
        harness = build_suite("smoke")
        assert harness.case_names == [
            "als_cold",
            "als_warm",
            "als_warm_ceb",
            "explore_step_ceb",
            "explore_200_steps",
            "tcnn_predict_full",
            "tcnn_fit",
            "serve_batch",
            "serve_after_write",
            "telemetry_overhead",
            "ingress_serve",
            "ingress_sparse",
            "ingress_dense",
            "adapt_drift",
            "wal_append",
            "recovery_replay",
            "checkpoint",
        ]

    def test_suite_rejects_unknown_scale(self):
        with pytest.raises(PerfError):
            build_suite("galactic")

    def test_als_cases_run_and_report_iterations(self):
        harness = build_suite("smoke")
        results = harness.run(["als_cold", "als_warm"])
        assert results["als_cold"].meta["iterations"] == 50
        assert results["als_warm"].meta["iterations"] == 5
        # The warm refresh must be substantially cheaper at equal shapes.
        assert (
            results["als_warm"].best_seconds < results["als_cold"].best_seconds
        )

    def test_explore_step_case_splits_a_step_around_the_solver(self):
        meta = build_suite("smoke").run(["explore_step_ceb"])["explore_step_ceb"].meta
        # The hand-off, Eq. 6 and the write are the smaller part of a step
        # (~15%; a third before the matrix handed the solver its cells).
        assert meta["outside_solver_ms"] < 0.5 * meta["step_ms"]

    def test_telemetry_case_runs_with_instrumentation_on(self):
        harness = build_suite("smoke")
        results = harness.run(["telemetry_overhead"])
        meta = results["telemetry_overhead"].meta
        assert meta["enabled"] is True
        assert meta["served"] > 0

    def test_ingress_dense_splits_a_request_into_harness_and_product(self):
        meta = build_suite("smoke").run(["ingress_dense"])["ingress_dense"].meta
        # 256 clients x 31 requests: every batch leaves full, on size.
        assert meta["served"] == 256 * 31 and meta["mean_batch_size"] == 256.0
        # The same clients against a door with nothing behind it cost less
        # than the real thing, and what is left is the product's.
        assert 0.0 < meta["harness_share"] < 1.0
        assert meta["product_us_per_request"] > 0.0

    def test_durability_cases_run_and_report_counts(self):
        harness = build_suite("smoke")
        results = harness.run(["wal_append", "recovery_replay"])
        assert results["wal_append"].meta["records"] >= 400
        assert results["wal_append"].meta["bytes"] > 0
        # Half the history is behind the checkpoint; its segments were
        # truncated, so recovery replays only the post-checkpoint half.
        assert results["recovery_replay"].meta["replayed"] > 0
        assert results["recovery_replay"].meta["skipped"] == 0

    def test_write_path_cases_report_their_evidence(self):
        harness = build_suite("smoke")
        results = harness.run(["serve_after_write", "checkpoint"])
        meta = results["serve_after_write"].meta
        # 256 random cells of 800 rows touch ~220 distinct rows per write.
        assert 150 < meta["patched_rows_per_write"] <= 256
        # Patching every row is the same kernel plus a scatter: no rows/n
        # threshold is needed to protect the patch path (1.2x by design;
        # 1.5x leaves room for a noisy neighbour).
        assert meta["patch_all_rows_us"] <= 1.5 * meta["compute_us"]
        assert results["checkpoint"].meta["lsn"] == 1
        assert results["checkpoint"].meta["on_disk_bytes"] < 1_050_000  # schema 1: 1.05 MB


class TestCli:
    def test_cli_writes_report_and_compares(self, tmp_path):
        out = tmp_path / "BENCH_core.json"
        code = perf_main(
            [
                "--scale", "smoke",
                "--cases", "als_cold", "als_warm",
                "--output", str(out),
            ]
        )
        assert code == 0
        payload = load_report(str(out))
        assert set(payload["cases"]) == {"als_cold", "als_warm"}

        # Against its own fresh output the gate must pass...
        code = perf_main(
            [
                "--scale", "smoke",
                "--cases", "als_cold",
                "--output", str(tmp_path / "again.json"),
                "--baseline", str(out),
            ]
        )
        assert code == 0

        # ...and fail once the baseline is artificially sped up.
        doctored = json.loads(out.read_text())
        for case in doctored["cases"].values():
            case["normalized"] /= 1000.0
        (tmp_path / "doctored.json").write_text(json.dumps(doctored))
        code = perf_main(
            [
                "--scale", "smoke",
                "--cases", "als_cold",
                "--output", str(tmp_path / "again2.json"),
                "--baseline", str(tmp_path / "doctored.json"),
            ]
        )
        assert code == 1

    def test_committed_baseline_matches_suite(self):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "baselines",
            "core_baseline.json",
        )
        baseline = load_report(path)
        assert set(baseline["cases"]) == set(build_suite("smoke").case_names)
        assert all(
            np.isfinite(entry["normalized"]) and entry["normalized"] > 0
            for entry in baseline["cases"].values()
        )
