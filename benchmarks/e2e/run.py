"""End-to-end benchmark runner: six workloads, one child process each.

    python3 benchmarks/e2e/run.py --all --seed 0            # every workload
    python3 benchmarks/e2e/run.py --all --seed 0 --trace    # plus the per-layer table
    python3 benchmarks/e2e/run.py --workload serve_dense --seed 3 --seconds 10 --trace 0

The last form is what ``BENCHMARK.json`` declares: it ends with one JSON line
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Every workload runs in its own child with BLAS pinned to
one thread and a fixed hash seed, so its numbers and its peak memory do not
depend on what ran before it.  See README.md for what the metrics mean.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
HISTORY = os.path.join(HERE, "history", "runs.jsonl")
#: One thread: with two cores, single-thread BLAS is both faster and steadier
#: on the explore loops than letting OpenBLAS spin up a pool per solve.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MIN_ROUNDS = 3
MIN_SETUPS = 3
MAX_SETUPS = 25
#: Share of ``--seconds`` that repeated set-ups may take, so that a set-up of
#: a few milliseconds is still a steady median.
SETUP_SHARE = 0.05


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def summary(values) -> Dict[str, float]:
    """A metric over its rounds: median, quartiles, sample count."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"value": float(median), "q1": float(q1), "q3": float(q3), "samples": len(values)}


# -- machine speed -------------------------------------------------------------------
#: Seconds the yardstick takes on this box when nothing else competes for the core.
YARDSTICK_REFERENCE_S = 0.0120
_RNG = np.random.default_rng(0)
_A, _B = _RNG.random((120, 120)), _RNG.random((120, 120))
_CELLS = _RNG.integers(0, 120, size=3000)


def yardstick() -> float:
    """Time a fixed mix of numpy and interpreter work (12 ms on a quiet core).

    This is a shared two-vCPU VM: a neighbour slows the guest by about 1.6x for
    4-20 s at a time (CPU time moves with wall time, so it is the core that is
    slower, not the process that waits).  Identical run-sets read 10-30% apart
    on raw wall time.  One yardstick before and after every round says how fast
    the machine was while that round ran.
    """
    began = time.perf_counter()
    for _ in range(12):
        product = _A @ _B
        np.linalg.solve(_A + 120 * np.eye(120), _B)
        product[_CELLS, _CELLS] = 1.0
        total, seen = 0, {}
        for i in range(3000):
            total += i * i
            seen[i & 255] = (i, total)
    return time.perf_counter() - began


def speed_factor(window, yardstick_s: float) -> float:
    """What to multiply a time inside ``window`` by to read it at reference speed.

    Only the CPU part of the window scales with machine speed; time spent
    waiting (the coalescer timer on ``serve_sparse``) is left as measured.
    """
    busy = min(window.cpu_s / window.wall_s, 1.0)
    return (1.0 - busy) + busy * YARDSTICK_REFERENCE_S / yardstick_s


def use_checkout() -> None:
    """Import the program from this checkout, and this directory's modules."""
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- the child: measure one workload ----------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Set up, warm up, run timed rounds (and one traced round); return the result."""
    use_checkout()
    import spans
    from workloads import WORKLOADS, Window

    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, scale, scratch)
        setups: List[float] = []
        raw_setups: List[float] = []
        speed = yardstick()
        while len(setups) < MIN_SETUPS or (
            sum(raw_setups) < SETUP_SHARE * seconds and len(setups) < MAX_SETUPS
        ):
            with Window() as took:
                workload.setup()
            before, speed = speed, yardstick()
            raw_setups.append(took.wall_s)
            setups.append(took.wall_s * speed_factor(took, (before + speed) / 2))

        def one_round():
            """A round and the factor that puts its times at reference speed."""
            nonlocal speed
            gc.collect()
            before = speed
            done = workload.round()
            speed = yardstick()
            return done, speed_factor(done.window, (before + speed) / 2)

        warm_up = one_round()  # counted for correctness, not timed
        timed = []
        began = time.perf_counter()
        while len(timed) < MIN_ROUNDS or time.perf_counter() - began < seconds:
            timed.append(one_round())
        rounds = [warm_up] + timed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        end_to_end = {
            "ops_per_s": summary([r.ops / (r.wall_s * factor) for r, factor in timed]),
            "op_p50_ms": summary([float(np.median(r.op_ms)) * factor for r, factor in timed]),
            "quality_ratio": summary([r.quality for r, _ in timed]),
            "peak_rss_mb": summary([peak_rss_mb]),
            "setup_s": summary(setups),
        }
        details = {
            key: summary([r.counters[key] for r, _ in timed]) for key in timed[0][0].counters
        }
        # As the clock read them, for whoever wants this machine's numbers.
        details["raw_ops_per_s"] = summary([r.ops / r.wall_s for r, _ in timed])
        details["raw_op_p50_ms"] = summary([float(np.median(r.op_ms)) for r, _ in timed])
        details["raw_setup_s"] = summary(raw_setups)
        details["machine_slowdown"] = summary([1.0 / factor for _, factor in timed])

        per_layer = None
        if trace:
            with spans.tracing() as recorded:
                traced, factor = one_round()
            rounds.append((traced, factor))
            recorded.clip(traced.window.start, traced.window.end)
            per_layer = spans.layer_metrics(
                recorded, traced.counters, traced.requests, traced.ticks
            )
            untraced = float(np.median([r.window.wall_s * f for r, f in timed]))
            per_layer["trace.overhead_share"] = recorded.wall_s * factor / untraced - 1.0
            per_layer["trace.nesting_violations"] = float(recorded.nesting_violations())
            recorded.write(os.path.join(OUT, f"trace_{name}.json"), name)

        failed = sum(r.failed for r, _ in rounds)
        return {
            "workload": name,
            "ops_unit": workload.ops_unit,
            "op_name": workload.op_name,
            "correct": failed == 0,
            "attempted": sum(r.attempted for r, _ in rounds),
            "failed": failed,
            "rounds": len(timed),
            "end_to_end": end_to_end,
            "details": details,
            "per_layer": per_layer,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# -- the parent: one child per workload, then report -------------------------------
def run_child(name: str, args) -> Optional[dict]:
    command = [
        sys.executable, os.path.abspath(__file__), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale,
    ]
    done = subprocess.run(
        command, env={**os.environ, **PINNED_ENV}, stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        print(f"{name}: child exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def show(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_result(result: dict, manifest: dict) -> None:
    name = result["workload"]
    status = "ok" if result["correct"] else "FAILED"
    print(
        f"== {name}: {result['rounds']} rounds, checks {status} "
        f"({result['failed']} failed of {result['attempted']}); "
        f"ops = {result['ops_unit']}; op = {result['op_name']}"
    )
    for metric in manifest["end_to_end"]:
        got = result["end_to_end"][metric["name"]]
        print(
            f"  {metric['name']:<16} {show(got['value']):>12} {metric['unit']:<6}"
            f" q1 {show(got['q1'])} q3 {show(got['q3'])} n={got['samples']}"
        )
    for key, got in sorted(result["details"].items()):
        print(f"    {key:<26} {show(got['value']):>12}  n={got['samples']}")
    if result["per_layer"] is not None:
        layers = result["per_layer"]
        # Only the layers this workload reached; the rest read 0 throughout.
        ran = {name.rsplit(".", 1)[0] for name, value in layers.items() if value != 0}
        for metric in manifest["per_layer"]:
            if metric["name"].rsplit(".", 1)[0] in ran:
                print(
                    f"  {metric['name']:<46} {show(layers[metric['name']]):>12} {metric['unit']}"
                )


def contract_line(result: dict, manifest: dict, trace: bool) -> str:
    """The single JSON line the ``BENCHMARK.json`` contract asks for."""
    if trace:
        # An absent span target reads null in result.json; here it reads 0 and
        # ``trace.absent_targets`` says how many there are.
        metrics = {
            m["name"]: {"value": result["per_layer"][m["name"]] or 0.0, "unit": m["unit"]}
            for m in manifest["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in manifest["end_to_end"]
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def record(run_set: dict) -> None:
    """Append the run-set to the history, with the machine's speed beside it."""
    use_checkout()
    from repro.perf.harness import calibration_seconds

    run_set = {**run_set, "calibration_s": calibration_seconds()}
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(run_set) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="run every workload")
    which.add_argument("--workload", help="run one workload and end with the contract line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", action="store_true", help="append to history/runs.jsonl")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    manifest = load_manifest()
    if args.seconds is None:
        args.seconds = manifest["run_seconds"] if args.scale == "full" else 0.0
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    if args.child:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
        print(json.dumps(result))
        return 0

    os.makedirs(OUT, exist_ok=True)
    results = {}
    for name in names if args.all else [args.workload]:
        result = run_child(name, args)
        if result is None:
            return 1
        print_result(result, manifest)
        results[name] = result
    run_set = {
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "journal_sync": "os",
        "workloads": results,
    }
    with open(os.path.join(OUT, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(run_set, handle, indent=1)
    if args.record:
        record(run_set)
    if args.workload:
        print(contract_line(results[args.workload], manifest, bool(args.trace)))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
