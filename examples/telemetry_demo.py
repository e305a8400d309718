"""Observability end to end: metrics, traces, and one exported snapshot.

A telemetry-enabled serving stack narrated in four acts:

1. a telemetry context is attached to a :class:`ServingService` and the
   asyncio ingress in front of it -- every served batch now feeds the
   shared metrics registry and the per-stage trace ring, while the
   decisions stay byte-identical to an uninstrumented run,
2. the Prometheus text exposition is printed: counters, gauges, and the
   per-stage latency histograms any scrape endpoint would serve,
3. the five slowest recent requests are replayed from the trace ring,
   stage by stage (``ingress.flush`` encloses ``shard.serve`` which
   encloses ``cache.lookup``),
4. :func:`collect_snapshot` pools the registry, trace ring, and
   serving/ingress stats into the same JSON document the chaos and load
   benchmarks upload as ``TELEMETRY_*.json`` CI artifacts.

Run with:  python examples/telemetry_demo.py
"""

import asyncio

import numpy as np

from repro import (
    CEB_SPEC,
    IngressConfig,
    ServiceIngress,
    ServingService,
    Telemetry,
    collect_snapshot,
    generate_workload,
)
from repro.experiments.serving import explored_matrix


async def main() -> None:
    workload = generate_workload(CEB_SPEC.scaled(0.25), seed=0)
    matrix = explored_matrix(workload, observed_fraction=0.35, seed=1)
    print(f"Workload: {workload.spec.name}  "
          f"({matrix.n_queries} queries x {matrix.n_hints} hints)")

    # -- Act 1: serve through an instrumented ingress -----------------------
    telemetry = Telemetry()
    service = ServingService(matrix, telemetry=telemetry)
    rng = np.random.default_rng(7)
    queries = rng.integers(0, matrix.n_queries, size=4000).tolist()

    config = IngressConfig(max_batch=256, max_wait_s=0.001)
    async with ServiceIngress(service, config) as ingress:
        answers = await ingress.serve_many(queries)
        assert len(answers) == len(queries) and not any(a.shed for a in answers)

        # Feedback lands on the always-on ``observe`` stage histogram.
        q = rng.integers(0, matrix.n_queries, size=256)
        h = rng.integers(0, matrix.n_hints, size=256)
        service.observe_batch(q, h, rng.uniform(0.5, 20.0, size=256))

        print(f"\nServed {len(answers)} requests through the ingress "
              f"(mean batch {ingress.stats().mean_batch_size:.1f})")

        # -- Act 2: the scrape endpoint's view ------------------------------
        print("\n=== Prometheus exposition (abridged) ===")
        for line in telemetry.expose_text().splitlines():
            if line.startswith("#") or "stage_seconds" in line:
                print(f"  {line}")

        # -- Act 3: the five slowest recent requests ------------------------
        print("\n=== Top 5 slowest traces ===")
        for trace in telemetry.tracer.slowest(5):
            stages = "  ".join(
                f"{stage}={seconds * 1e6:7.1f}us" for stage, seconds in trace.stages
            )
            print(f"  {trace.name:<14} batch={trace.batch_size:<4} {stages}")

        # -- Act 4: the exportable health snapshot --------------------------
        snapshot = collect_snapshot(
            telemetry, service=service, ingress=ingress
        )

    payload = snapshot.as_dict()
    stage_counts = {
        stage: child["count"]
        for stage, child in payload["metrics"]["repro_stage_seconds"][
            "children"
        ].items()
    }
    print("\n=== Snapshot (what the CI artifacts contain) ===")
    print(f"  sections:           {', '.join(sorted(payload))}")
    print(f"  stage observations: {stage_counts}")
    print(f"  serving decisions:  {payload['serving']['decisions']}")
    print(f"  finished traces:    {payload['traces']['finished_traces']}")
    print("\nDone: same decisions, full visibility.")


if __name__ == "__main__":
    asyncio.run(main())
