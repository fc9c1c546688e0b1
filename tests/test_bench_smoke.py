"""Tier-1 wrapper around ``scripts/bench_smoke.py`` and its gate table.

Keeps the checked-in budgets honest on every test run: among them, the
vectorized bitwise backend must stay within 2x of the speedup recorded
in ``BENCH_kernels.json``, and the disabled-observability overhead on
the same kernel run must keep the vectorized/python time ratio within
5 % of the recorded pre-instrumentation ratio (ratio form so host speed
drift cancels).  The gate table itself — names, order, BENCH documents
and effective thresholds — is pinned without timing anything.
"""

from pathlib import Path

import pytest

from repro.experiments import (
    GATES,
    bench_path,
    load_bench,
    run_gate,
    run_native_smoke,
    run_smoke,
)
from repro.experiments.hw_bench import LARGEST_STANDIN

REPO_ROOT = Path(__file__).resolve().parents[1]

# Gate N is GATES[N - 1]; docs cite gates by these numbers.  Each entry:
# (name, BENCH stem, measurement the gate calls, a fixed result for it,
# the threshold the gate must then apply).  The fake document records a
# smoke speedup of 8 and a vectorized/python time ratio of 0.1.
EXPECTED_GATES = [
    ("kernels", "kernels", "kernel_bench.run_smoke", None, 8.0 / 2.0),
    ("obs", "kernels", "kernel_bench.run_obs_overhead_pair", (1.0, 10.0),
     0.1 * 1.05),
    ("hw", "hw", "hw_bench.run_hw_smoke", None, 8.0 / 2.0),
    ("service", "service", "service_bench.run_service_smoke", None, 8.0 / 4.0),
    ("native", "kernels", "kernel_bench.run_native_smoke", None, 3.0),
    ("replay", "hw", "hw_bench.run_hw_native_smoke", None, 1.2),
    ("streaming", "streaming", "streaming_bench.run_streaming_smoke", None,
     10.0),
    ("mesh", "mesh", "mesh_bench.run_mesh_smoke", None, 1.3),
    ("router", "router", "router_bench.evaluate_policies", None,
     {"agreement": 0.9, "latency_reduction": 0.10}),
    ("hbm", "hbm", "hbm_sweep.run_hbm_smoke", None, 0.15),
]
_FAKE_DOC = {
    "smoke": {"baseline_speedup": 8.0, "vectorized_s": 1.0, "python_s": 10.0},
    "matrix": {},
}
_FAKE_RESULT = {
    "available": True,
    "baseline_speedup": 100.0,
    "min_delta_reduction": 1.0,
    "agreement": 1.0,
    "latency_reduction": 1.0,
}


@pytest.fixture(autouse=True)
def _quiesce_worker_pools():
    """Reap any persistent worker pools before timing.

    The smoke gates compare wall clock against a baseline recorded in a
    clean single-process state; idle pool workers left behind by the
    parallel-backend tests measurably perturb microsecond-scale timings
    on small hosts, so the pools are shut down first (they respawn on
    demand).
    """
    from repro.parallel.pool import shutdown_pools

    shutdown_pools()
    yield


@pytest.mark.parametrize(
    "number, expected",
    list(enumerate(EXPECTED_GATES, 1)),
    ids=[e[0] for e in EXPECTED_GATES],
)
def test_gate_table_pins_order_and_thresholds(monkeypatch, number, expected):
    """Every gate keeps its number, name, BENCH file and effective floor."""
    import importlib

    name, bench, measurement, result, threshold = expected
    assert len(GATES) == len(EXPECTED_GATES)
    gate = GATES[number - 1]
    assert (gate.name, gate.bench) == (name, bench)
    module, attr = measurement.split(".")
    monkeypatch.setattr(
        importlib.import_module(f"repro.experiments.{module}"), attr,
        lambda *a, **k: _FAKE_RESULT if result is None else result,
    )
    monkeypatch.setattr("repro.experiments.router_bench.run_router_parity",
                        lambda: 1)
    monkeypatch.setattr("repro.service.decision.fit_decision_model",
                        lambda matrix: None)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    ok, _current, got = gate.run(_FAKE_DOC, 1, None)
    assert ok is True
    assert got == pytest.approx(threshold)


def test_factor_overrides_only_kernels_and_hw(monkeypatch):
    """``--factor`` scales the two baseline-ratio speedup gates, no other."""
    for measurement in ("kernel_bench.run_smoke", "hw_bench.run_hw_smoke",
                        "service_bench.run_service_smoke"):
        monkeypatch.setattr(f"repro.experiments.{measurement}",
                            lambda *a, **k: _FAKE_RESULT)
    thresholds = {
        g.name: g.run(_FAKE_DOC, 1, 0.5)[2]
        for g in GATES if g.name in ("kernels", "hw", "service")
    }
    assert thresholds == {"kernels": 16.0, "hw": 16.0, "service": 2.0}


def test_baseline_is_checked_in():
    assert bench_path("kernels") == REPO_ROOT / "BENCH_kernels.json"
    assert bench_path("kernels").exists(), "run benchmarks/bench_kernels.py first"
    doc = load_bench("kernels")
    assert doc["smoke"]["baseline_speedup"] > 1.0
    gd = [
        e
        for e in doc["entries"]
        if e["dataset"] == "GD" and e["algorithm"] == "bitwise"
    ]
    assert gd and gd[0]["speedup"] >= 10.0


def test_hw_baseline_is_checked_in():
    assert bench_path("hw") == REPO_ROOT / "BENCH_hw.json"
    assert bench_path("hw").exists(), "run benchmarks/bench_hw.py first"
    doc = load_bench("hw")
    assert doc["smoke"]["baseline_speedup"] > 1.0
    assert all(e["exact_parity"] for e in doc["entries"])
    # The acceptance record: >=10x on the largest stand-in.
    rc = [e for e in doc["entries"] if e["dataset"] == LARGEST_STANDIN]
    assert rc and rc[0]["speedup"] >= 10.0


def test_streaming_baseline_is_checked_in():
    assert bench_path("streaming") == REPO_ROOT / "BENCH_streaming.json"
    assert bench_path("streaming").exists(), (
        "run benchmarks/bench_streaming.py first"
    )
    doc = load_bench("streaming")
    # The acceptance record: the session lane sustains >= 10x the naive
    # per-batch full-recolor baseline, with every batch validated.
    assert doc["floor_speedup"] == 10.0
    assert doc["smoke"]["baseline_speedup"] >= doc["floor_speedup"]
    assert doc["smoke"]["validated_batches"] > 0
    for entry in doc["entries"]:
        assert entry["validated_batches"] == entry["batches"]


def test_router_baseline_is_checked_in():
    assert bench_path("router") == REPO_ROOT / "BENCH_router.json"
    assert bench_path("router").exists(), (
        "run benchmarks/bench_router.py first"
    )
    doc = load_bench("router")
    # The acceptance record: the fitted router matches the measured
    # fastest parity-neutral backend on >= 90% of sweep points AND cuts
    # mean routed latency >= 10% vs the hand-set thresholds, with live
    # coloring parity asserted before the record was kept.
    assert doc["agreement_floor"] == 0.9
    assert doc["reduction_floor"] == 0.10
    assert doc["smoke"]["agreement"] >= doc["agreement_floor"]
    assert doc["smoke"]["latency_reduction"] >= doc["reduction_floor"]
    assert doc["smoke"]["parity_colorings_checked"] > 0
    assert len(doc["matrix"]["points"]) >= 48


def test_router_smoke_no_regression():
    """Refit from the checked-in matrix and re-score both policies.

    Deterministic (scores against the recorded seconds, no re-timing)
    apart from the small live parity probe through real services.
    """
    ok, current, floors = run_gate("router")
    assert ok, (
        f"fitted routing regressed: agreement {current['agreement']:.2f} "
        f"(floor {floors['agreement']:.2f}), latency reduction "
        f"{current['latency_reduction']:.2f} "
        f"(floor {floors['latency_reduction']:.2f})"
    )
    assert current["parity_colorings_checked"] > 0


def test_hw_smoke_no_regression():
    ok, current, threshold = run_gate("hw", factor=2.0, repeats=2)
    assert ok, (
        f"batched accelerator engine regressed: smoke speedup {current:.2f}x "
        f"fell below threshold {threshold:.2f}x"
    )


def test_smoke_no_regression():
    ok, current, threshold = run_gate("kernels", factor=2.0, repeats=3)
    assert ok, (
        f"vectorized backend regressed: smoke speedup {current:.2f}x "
        f"fell below threshold {threshold:.2f}x"
    )


def test_smoke_script_main(capsys):
    """The CLI wiring itself: exit 0 against the checked-in baseline."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_smoke", REPO_ROOT / "scripts" / "bench_smoke.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    # An absurd factor<1 demand must fail (current can't beat baseline*10)
    # — and the failing kernels gate must not hide the nine after it.
    assert mod.main(["--factor", "0.01"]) == 1
    out = capsys.readouterr().out
    for number, gate in enumerate(GATES, 1):
        assert f"gate {number:2d} {gate.name} " in out
    assert mod.main(["--repeats", "2"]) == 0


def test_obs_disabled_overhead():
    """Instrumented-but-disabled kernels must stay within 5% of baseline."""
    ok, current, threshold = run_gate("obs", repeats=7)
    assert ok, (
        f"disabled observability overhead too high: vectorized/python "
        f"time ratio {current:.4f} exceeds threshold {threshold:.4f}"
    )


def test_run_smoke_shape():
    doc = run_smoke(repeats=1)
    assert doc["algorithm"] == "bitwise"
    assert doc["baseline_speedup"] == pytest.approx(
        doc["python_s"] / doc["vectorized_s"]
    )


def test_native_kernel_gate():
    """The compiled tier must clear its absolute floor — or skip cleanly.

    ``ok is None`` means no native backend is usable on this host, which
    is a legitimate state (the tier is opt-in); anything else is a hard
    pass/fail against the >= 3x acceptance floor.
    """
    ok, current, threshold = run_gate("native", repeats=3)
    if ok is None:
        pytest.skip(f"native tier unavailable: {current}")
    assert ok, (
        f"compiled kernels fell below the acceptance floor: "
        f"{current:.2f}x < {threshold:.2f}x"
    )


def test_native_replay_gate():
    """Same shape for the batched engine's compiled replay recurrence."""
    ok, current, threshold = run_gate("replay", repeats=2)
    if ok is None:
        pytest.skip(f"native tier unavailable: {current}")
    assert ok, (
        f"compiled replay fell below the acceptance floor: "
        f"{current:.2f}x < {threshold:.2f}x"
    )


def test_native_smoke_doc_shape():
    doc = run_native_smoke(repeats=1)
    if not doc["available"]:
        assert doc["reason"]
        return
    assert doc["baseline_speedup"] == pytest.approx(
        doc["vectorized_s"] / doc["native_s"]
    )
    assert doc["backend"]["name"]


def test_native_baseline_recorded_when_available():
    """The checked-in JSON must carry the native evidence for this PR's
    acceptance: >= 3x on the raw kernel bench (recorded on the machine
    that regenerated it — the block is absent only if that machine had
    no compiler, which the seed baseline did)."""
    doc = load_bench("kernels")
    native_smoke = doc.get("native_smoke")
    assert native_smoke is not None
    if native_smoke["available"]:
        assert native_smoke["baseline_speedup"] >= 3.0
        assert native_smoke["backend"]["name"]
    hw_doc = load_bench("hw")
    hw_native = hw_doc.get("native_smoke")
    assert hw_native is not None
    if hw_native["available"]:
        assert hw_native["baseline_speedup"] >= 1.2
