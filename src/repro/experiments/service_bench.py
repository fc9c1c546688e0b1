"""Micro-batching benchmark for the coloring service (wall clock, measured).

The service's batch lane coalesces small concurrent jobs into one
disjoint-union kernel invocation (:mod:`repro.service.batcher`), trading
per-call dispatch overhead for one slightly larger vectorized run.  The
coalesced colors are parity-tested byte-identical to solo runs, so — as
with the accelerator engines — the only open question is speed.  This
module measures it: the same closed-loop workload of small jobs pushed
through a service with micro-batching **on** vs **off**, best-of-repeats,
written to ``BENCH_service.json`` at the repo root.

Entry points mirror :mod:`repro.experiments.hw_bench`:

* :func:`run_service_bench` — the fleet-size sweep, driven by
  ``benchmarks/bench_service.py``;
* :func:`run_service_smoke` — one fixed small workload timed the same
  way, held to the checked-in baseline by gate 4
  (:mod:`repro.experiments.gates`) so a batching regression fails fast
  in CI.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..graph import erdos_renyi
from ..obs import Registry
from .gates import best_of

__all__ = [
    "SERVICE_SMOKE_SPEC",
    "run_service_bench",
    "run_service_smoke",
]

SERVICE_SMOKE_SPEC = (
    "24 x erdos_renyi(~120, p=0.08), closed loop, executors=2, "
    "batch window 10ms"
)

_SMOKE_JOBS = 24
_BATCH_WINDOW_S = 0.01


def _small_fleet(count: int) -> List:
    """Distinct small graphs, all under the service's batch threshold."""
    return [
        erdos_renyi(100 + 7 * (i % 11), 0.08, seed=300 + i, name=f"fleet{i}")
        for i in range(count)
    ]


def _closed_loop_s(graphs, *, batching: bool, executors: int = 2) -> Tuple[float, int]:
    """Push every graph through a fresh service; (seconds, jobs coalesced).

    Closed loop: all jobs are submitted up front and the clock stops when
    the last completes — the shape of a client fleet hammering a served
    instance.  Caching is disabled so every job pays for a real kernel run.
    """
    from ..service import ColoringService, JobRequest, ServiceConfig

    svc = ColoringService(
        ServiceConfig(
            executors=executors,
            batching=batching,
            batch_window_s=_BATCH_WINDOW_S,
            cache_capacity=0,
            max_queue_depth=max(4 * len(graphs), 64),
            registry=Registry(enabled=False),
        )
    )
    try:
        start = time.perf_counter()
        jobs = [svc.submit(JobRequest(graph=g)) for g in graphs]
        results = [job.result_or_raise(timeout=300) for job in jobs]
        elapsed = time.perf_counter() - start
    finally:
        svc.close(drain=False)
    coalesced = sum(1 for r in results if r.batched >= 2)
    return elapsed, coalesced


def _assert_service_parity(graphs) -> None:
    """Batched service colors must equal direct repro.color, byte-exact."""
    from .. import color as direct_color
    from ..service import ColoringService, JobRequest, ServiceConfig

    svc = ColoringService(
        ServiceConfig(
            executors=2,
            batch_window_s=_BATCH_WINDOW_S,
            cache_capacity=0,
            registry=Registry(enabled=False),
        )
    )
    try:
        jobs = [svc.submit(JobRequest(graph=g)) for g in graphs]
        for g, job in zip(graphs, jobs):
            served = job.result_or_raise(timeout=300)
            if not np.array_equal(served.colors, direct_color(g).colors):
                raise AssertionError(
                    f"service colors diverged from direct repro.color on {g.name}"
                )
    finally:
        svc.close(drain=False)


def run_service_bench(
    fleet_sizes: Iterable[int] = (8, 16, 32, 64),
    *,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time the closed-loop fleet at several sizes; JSON-ready document.

    Each entry records best-of-``repeats`` wall clock with micro-batching
    on and off, the throughput win, and that byte parity held (asserted
    before any timing is kept — a fast wrong batch lane must fail here,
    not report a speedup).
    """
    entries: List[Dict[str, object]] = []
    for count in fleet_sizes:
        graphs = _small_fleet(count)
        _assert_service_parity(graphs)  # also warms kernels and pools
        coalesced = [0]

        def batched_run():
            seconds, batched_jobs = _closed_loop_s(graphs, batching=True)
            coalesced[0] = batched_jobs
            return seconds

        batched_s = best_of(batched_run, repeats)
        unbatched_s = best_of(
            lambda: _closed_loop_s(graphs, batching=False)[0], repeats
        )
        entries.append(
            {
                "jobs": count,
                "batched_s": batched_s,
                "unbatched_s": unbatched_s,
                "batched_jobs_per_s": count / batched_s,
                "unbatched_jobs_per_s": count / unbatched_s,
                "speedup": unbatched_s / batched_s
                if batched_s > 0
                else float("inf"),
                "jobs_coalesced": coalesced[0],
                "exact_parity": True,
            }
        )
    return {
        "unit": "seconds, best of repeats (closed-loop fleet wall clock)",
        "repeats": repeats,
        "batch_window_s": _BATCH_WINDOW_S,
        "entries": entries,
        "smoke": run_service_smoke(repeats=repeats),
    }


def run_service_smoke(*, repeats: int = 3) -> Dict[str, object]:
    """The fixed small workload (see ``SERVICE_SMOKE_SPEC``), timed both ways.

    The recorded ``baseline_speedup`` is what gate 4 compares future runs
    against.
    """
    graphs = _small_fleet(_SMOKE_JOBS)
    _assert_service_parity(graphs)
    coalesced = [0]

    def batched_run():
        seconds, batched_jobs = _closed_loop_s(graphs, batching=True)
        coalesced[0] = batched_jobs
        return seconds

    batched_s = best_of(batched_run, repeats)
    unbatched_s = best_of(
        lambda: _closed_loop_s(graphs, batching=False)[0], repeats
    )
    return {
        "workload": SERVICE_SMOKE_SPEC,
        "jobs": _SMOKE_JOBS,
        "batched_s": batched_s,
        "unbatched_s": unbatched_s,
        "jobs_coalesced": coalesced[0],
        "baseline_speedup": unbatched_s / batched_s
        if batched_s > 0
        else float("inf"),
    }
