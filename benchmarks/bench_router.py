"""Router autotuning benchmark — fitted decision surface vs constants.

Runs the 48-point scenario sweep (degree skew × community strength ×
density × size), fits the per-backend latency surfaces, and scores the
fitted argmin router against the hand-set size/skew thresholds on the
measured matrix.  Byte parity of both routing policies with direct
``repro.color`` is asserted through live services before the record is
kept.  Running the file directly regenerates the checked-in
``BENCH_router.json``:

    PYTHONPATH=src python benchmarks/bench_router.py
"""

from repro.experiments import run_router_bench, write_bench


def _render(results):
    ev = results["evaluation"]
    lines = [
        f"matrix: {ev['points']} points, software tier {ev['software_tier']}",
        f"fitted matches measured-fastest on "
        f"{100 * ev['agreement']:.0f}% of points "
        f"(floor {100 * results['agreement_floor']:.0f}%)",
        f"mean routed latency: fitted {ev['fitted_mean_s'] * 1e3:.2f}ms vs "
        f"constant {ev['constant_mean_s'] * 1e3:.2f}ms "
        f"({100 * ev['latency_reduction']:.0f}% reduction, floor "
        f"{100 * results['reduction_floor']:.0f}%)",
        "",
        "point                                fitted       constant     fastest",
    ]
    for row in ev["rows"]:
        p = row["params"]
        label = (f"n={p['size']:<6} a={p['skew']:.2f} "
                 f"c={p['community']:.1f} d={p['density']:.0f}")
        mark = "" if row["matched_fastest"] else "  <- miss"
        lines.append(
            f"{label:<36} {row['fitted']:<12} {row['constant']:<12} "
            f"{row['fastest']}{mark}"
        )
    if results["slow_regions"]:
        lines.append("")
        lines.append(f"slow regions (kernel-work targets): "
                     f"{len(results['slow_regions'])}")
    return "\n".join(lines)


def test_router_autotune(benchmark, once, capsys):
    results = once(benchmark, run_router_bench)
    with capsys.disabled():
        print("\n=== Routing layer: fitted decision surface vs constants ===")
        print(_render(results))
    smoke = results["smoke"]
    assert smoke["agreement"] >= results["agreement_floor"]
    assert smoke["latency_reduction"] >= results["reduction_floor"]
    assert smoke["parity_colorings_checked"] > 0


if __name__ == "__main__":
    results = run_router_bench(repeats=3, progress=print)
    path = write_bench("router", results)
    print(_render(results))
    print(f"\nwrote {path}")
