"""Service micro-batching benchmark — coalesced vs solo small jobs.

A closed-loop fleet of small coloring jobs is pushed through the
in-process :class:`~repro.service.service.ColoringService` twice: once
with the micro-batch lane on (concurrent small jobs ride one
disjoint-union kernel call) and once with it off (every job runs solo).
Byte parity with direct ``repro.color`` is asserted before any timing is
kept.  Running the file directly regenerates the checked-in
``BENCH_service.json``:

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from repro.experiments import run_service_bench, write_bench


def _render(results):
    lines = [
        "jobs   batched     unbatched   speedup  coalesced",
    ]
    for e in results["entries"]:
        lines.append(
            f"{e['jobs']:<5} {e['batched_s'] * 1e3:8.1f}ms "
            f"{e['unbatched_s'] * 1e3:9.1f}ms "
            f"{e['speedup']:6.2f}x  {e['jobs_coalesced']:>4}/{e['jobs']}"
        )
    smoke = results["smoke"]
    lines.append(
        f"smoke {smoke['batched_s'] * 1e3:8.1f}ms "
        f"{smoke['unbatched_s'] * 1e3:9.1f}ms "
        f"{smoke['baseline_speedup']:6.2f}x  "
        f"{smoke['jobs_coalesced']:>4}/{smoke['jobs']}"
    )
    return "\n".join(lines)


def test_service_microbatching(benchmark, once, capsys):
    results = once(benchmark, run_service_bench)
    with capsys.disabled():
        print("\n=== Service layer: micro-batched vs solo small jobs ===")
        print(_render(results))
    # The acceptance shape: batching must actually coalesce and must not
    # lose to solo dispatch on the largest fleet.
    largest = results["entries"][-1]
    assert largest["jobs_coalesced"] >= 2
    assert largest["speedup"] >= 1.0


if __name__ == "__main__":
    results = run_service_bench(repeats=3)
    path = write_bench("service", results)
    print(_render(results))
    print(f"\nwrote {path}")
