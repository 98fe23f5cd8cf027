"""Benchmarks: the service's own submit→result pipeline (not the sim).

The ROADMAP's scale target talks about *service* throughput — sustained
jobs/sec and tail latency of the queue → cache → store pipeline — which is
orthogonal to simulator speed.  This bench measures exactly that on a
synthetic cache-hit burst: the cache (the service's campaign store) is
pre-seeded with fabricated cells and every submitted job resolves to one
of them, so a pass through
:class:`repro.service.scheduler.ServiceScheduler` exercises queue replay,
claim/done transitions, cache lookups, and the end-of-pass fold into the
``results`` campaign while simulating nothing.  Wall time here is pure service overhead.

Latency quantiles come from the run's own telemetry
(``repro_service_submit_result_latency_seconds``), so the benchmark also
keeps the telemetry plane itself honest: if instrumenting every lifecycle
event ever becomes expensive, this wall guard catches it.

Recorded into ``BENCH_service.json`` via ``tools/bench_guard.py`` (CI
uses a wider tolerance than the simulator benches — this is queue-file
I/O, not arithmetic).
"""

import shutil
import tempfile

from repro.obs.store import StoredCell
from repro.service.cache import ResultCache
from repro.service.queue import KIND_CELL, JobQueue
from repro.service.scheduler import ServiceScheduler
from repro.service.telemetry import LATENCY_METRIC, ServiceTelemetry

#: Jobs in one synthetic burst.
BURST_JOBS = 150

#: Distinct pre-seeded cache entries the burst cycles over.
DISTINCT_CELLS = 30


def _synthetic_cell(index: int) -> StoredCell:
    return StoredCell(
        cell_id=f"{index:064x}",
        key=f"synthetic@{index}",
        deterministic={
            "configs": {"S-LocW": {"makespan": 1.0 + index}},
            "winner": "S-LocW",
        },
        host={},
        provenance={"suite": "bench_service"},
    )


def _run_burst() -> dict:
    tmp = tempfile.mkdtemp(prefix="bench-service-")
    try:
        cache = ResultCache(tmp)
        cells = [_synthetic_cell(i) for i in range(DISTINCT_CELLS)]
        for cell in cells:
            cache.put(cell)
        queue = JobQueue(tmp)
        for i in range(BURST_JOBS):
            queue.submit(
                KIND_CELL,
                {"family": "synthetic", "ranks": 1, "burst_index": i},
                cell_id=cells[i % DISTINCT_CELLS].cell_id,
            )
        telemetry = ServiceTelemetry(tmp, enabled=True)
        scheduler = ServiceScheduler(root=tmp, telemetry=telemetry)
        report = scheduler.run()
        assert report.cache_hits == BURST_JOBS, report.as_record()
        assert report.failed == 0, report.as_record()
        latency = telemetry.registry.histogram(LATENCY_METRIC)
        return {
            "jobs": BURST_JOBS,
            "wall_seconds": report.wall_seconds,
            "jobs_per_second": (
                BURST_JOBS / report.wall_seconds
                if report.wall_seconds > 0
                else 0.0
            ),
            "latency_p50_seconds": latency.quantile(0.5),
            "latency_p99_seconds": latency.quantile(0.99),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_service_cached_burst(benchmark):
    stats = benchmark.pedantic(
        _run_burst, rounds=3, iterations=1, warmup_rounds=1
    )
    assert stats["jobs_per_second"] > 0
    benchmark.extra_info.update(
        {
            "burst_jobs": stats["jobs"],
            "jobs_per_second": stats["jobs_per_second"],
            "latency_p50_seconds": stats["latency_p50_seconds"],
            "latency_p99_seconds": stats["latency_p99_seconds"],
        }
    )
