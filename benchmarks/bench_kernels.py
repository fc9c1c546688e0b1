"""Kernel-layer benchmark — scalar Python vs packed-bitset backends.

Unlike the table/figure benchmarks (which report *modelled* cycles), this
one measures real wall clock: both coloring backends on the stand-in suite.
Running the file directly regenerates the checked-in ``BENCH_kernels.json``:

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

from repro.experiments import run_kernel_bench, write_bench


def _native_cols(e):
    """The two native columns, or dashes when the tier was unavailable."""
    if "native_s" not in e:
        return f"{'-':>11} {'-':>7}"
    return f"{e['native_s'] * 1e3:9.1f}ms {e['native_speedup']:6.1f}x"


def _render(results):
    lines = [
        "dataset  algorithm         python      vectorized  speedup "
        "native      vs vec"
    ]
    for e in results["entries"]:
        lines.append(
            f"{e['dataset']:<8} {e['algorithm']:<16} "
            f"{e['python_s'] * 1e3:9.1f}ms {e['vectorized_s'] * 1e3:9.1f}ms "
            f"{e['speedup']:6.1f}x {_native_cols(e)}"
        )
    smoke = results["smoke"]
    lines.append(
        f"smoke    {smoke['algorithm']:<16} "
        f"{smoke['python_s'] * 1e3:9.1f}ms {smoke['vectorized_s'] * 1e3:9.1f}ms "
        f"{smoke['baseline_speedup']:6.1f}x {_native_cols(smoke)}"
    )
    native_smoke = results.get("native_smoke") or {}
    if native_smoke.get("available"):
        backend = native_smoke["backend"]
        lines.append(
            f"\n=== Native kernels: {backend['name']} ({backend['version']}) ==="
        )
        lines.append(
            f"raw scatter+first-free: vectorized "
            f"{native_smoke['vectorized_s'] * 1e3:.2f}ms, native "
            f"{native_smoke['native_s'] * 1e3:.2f}ms "
            f"({native_smoke['baseline_speedup']:.1f}x)"
        )
    elif native_smoke:
        lines.append(f"\nnative kernels unavailable: {native_smoke['reason']}")
    scaling = results.get("scaling")
    if scaling:
        lines.append(
            f"\n=== Worker scaling: backend=parallel on {scaling['dataset']} "
            f"({scaling['num_vertices']} vertices, {scaling['num_edges']} edge "
            f"slots, host has {scaling['host_cpus']} CPU(s)) ==="
        )
        lines.append(
            f"vectorized reference: {scaling['vectorized_s'] * 1e3:.1f}ms"
        )
        for e in scaling["entries"]:
            lines.append(
                f"workers={e['workers']}: {e['seconds'] * 1e3:9.1f}ms "
                f"({e['speedup_vs_vectorized']:.2f}x vs vectorized)"
            )
    return "\n".join(lines)


def test_kernel_backends(benchmark, once, capsys):
    results = once(benchmark, run_kernel_bench)
    with capsys.disabled():
        print("\n=== Kernel layer: python vs vectorized backends ===")
        print(_render(results))
    # The acceptance target: >=10x for vectorized bitwise coloring on the
    # default power-law social stand-in (GD).
    gd = [
        e
        for e in results["entries"]
        if e["dataset"] == "GD" and e["algorithm"] == "bitwise"
    ]
    assert gd and gd[0]["speedup"] >= 10.0


if __name__ == "__main__":
    results = run_kernel_bench(repeats=5)
    path = write_bench("kernels", results)
    print(_render(results))
    print(f"\nwrote {path}")
