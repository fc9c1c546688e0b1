"""The regression gates over the checked-in ``BENCH_*.json`` documents.

Every benchmark module writes one ``BENCH_<name>.json`` at the repo root
(:func:`write_bench`) and ``scripts/bench_smoke.py`` holds the repo to
it through :data:`GATES`: ten ``(name, bench, run)`` entries, numbered
1-10 in table order (``docs/`` cite them as "gate N").  Each ``run``
takes the gate's loaded BENCH document, a repeat count and the optional
``--factor`` override, and returns ``(ok, current, threshold)``.  ``ok``
is ``None`` for a skip, and ``current`` then carries the reason.

Two kinds of threshold:

* **baseline ratio** (kernels, hw, service, obs) — the recorded smoke
  number divided by a slack factor (or, for obs, times a limit);
  ``--factor`` overrides :data:`KERNELS_FACTOR` and :data:`HW_FACTOR`;
* **absolute floor** (native, replay, streaming, mesh, router, hbm) —
  the failure mode these catch (a compiled path degrading to its
  fallback, the session lane to full recolors, the mesh serializing)
  reads as ~1x on any host, so no baseline moves the bar.

Timings are best-of-``repeats`` wall clock (:func:`best_of`): the
minimum is the robust statistic for micro-benchmarks because noise is
strictly additive.  Parity with the reference path is asserted inside
every measured smoke before any timing is kept.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Tuple

__all__ = [
    "GATES",
    "Gate",
    "best_of",
    "bench_path",
    "load_bench",
    "run_gate",
    "write_bench",
]

REPO_ROOT = Path(__file__).resolve().parents[3]

KERNELS_FACTOR = 2.0
"""Gate 1: vectorized-over-python smoke speedup may fall to baseline / 2."""

OBS_LIMIT = 1.05
"""Gate 2: obs-disabled vectorized/python time ratio may grow 5 %."""

HW_FACTOR = 2.0
"""Gate 3: batched-over-event engine speedup may fall to baseline / 2."""

SERVICE_FACTOR = 4.0
"""Gate 4: micro-batching win may fall to baseline / 4 (closed-loop
service timings carry scheduler noise kernel timings do not)."""

NATIVE_FLOOR = 3.0
"""Gate 5: compiled scatter-OR + first-free must beat vectorized 3x."""

REPLAY_FLOOR = 1.2
"""Gate 6: compiled replay must beat the Python replay 1.2x on the whole
batched run (diluted by the shared vectorized precompute)."""

STREAMING_FLOOR = 10.0
"""Gate 7: the session lane must sustain 10x the naive per-batch full
recolor delta rate."""

MESH_FLOOR = 1.3
"""Gate 8: 2 mesh workers must beat 1 by 1.3x on multi-CPU hosts."""

ROUTER_AGREEMENT_FLOOR = 0.9
"""Gate 9: the fitted router must match the measured-fastest
parity-neutral backend on 90 % of sweep points ..."""

ROUTER_REDUCTION_FLOOR = 0.10
"""... and cut mean routed latency vs the hand-set constants by 10 %."""

HBM_FLOOR = 0.15
"""Gate 10: delta-compressed layout must cut modeled edge-read cycles by
15 % on every skewed stand-in (measured: 25-45 %)."""

GateResult = Tuple[Optional[bool], object, object]


def bench_path(name: str) -> Path:
    """``BENCH_<name>.json`` at the repo root."""
    return REPO_ROOT / f"BENCH_{name}.json"


def load_bench(name: str) -> Dict[str, object]:
    """Read the checked-in ``BENCH_<name>.json``."""
    return json.loads(bench_path(name).read_text())


def write_bench(
    name: str, doc: Dict[str, object], path: Optional[Path] = None
) -> Path:
    """Write ``doc`` as pretty-printed JSON to ``path`` (default
    :func:`bench_path`); returns the path written."""
    path = bench_path(name) if path is None else Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall clock of ``max(1, repeats)`` calls of ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _at_least(current: float, floor: float) -> GateResult:
    return current >= floor, current, floor


def _ratio(doc, current: float, factor: float) -> GateResult:
    return _at_least(current, float(doc["smoke"]["baseline_speedup"]) / factor)


def _kernels(doc, repeats, factor) -> GateResult:
    from .kernel_bench import run_smoke

    current = run_smoke(repeats=repeats)["baseline_speedup"]
    return _ratio(doc, current, factor or KERNELS_FACTOR)


def _obs(doc, repeats, factor) -> GateResult:
    """Disabled-observability overhead, drift-normalized.

    Compares the obs-disabled ``vectorized / python`` time ratio (both
    measured moments apart in this process) with the recorded
    pre-instrumentation ``smoke.vectorized_s / smoke.python_s``.  Host
    speed cancels out of the ratio; per-run instrumentation cost does
    not, and the ~10x shorter vectorized run amplifies it.  Min over
    three windows because contention noise is one-sided.
    """
    from .kernel_bench import run_obs_overhead_pair

    smoke = doc["smoke"]
    threshold = float(smoke["vectorized_s"]) / float(smoke["python_s"]) * OBS_LIMIT
    current = min(
        vec / py
        for vec, py in (
            run_obs_overhead_pair(repeats=max(repeats, 5)) for _ in range(3)
        )
    )
    return current <= threshold, current, threshold


def _hw(doc, repeats, factor) -> GateResult:
    from .hw_bench import run_hw_smoke

    current = run_hw_smoke(repeats=repeats)["baseline_speedup"]
    return _ratio(doc, current, factor or HW_FACTOR)


def _service(doc, repeats, factor) -> GateResult:
    from .service_bench import run_service_smoke

    current = run_service_smoke(repeats=repeats)["baseline_speedup"]
    return _ratio(doc, current, SERVICE_FACTOR)


def _native_or_skip(smoke: Dict[str, object], floor: float) -> GateResult:
    if not smoke["available"]:
        return None, smoke["reason"], floor
    return _at_least(smoke["baseline_speedup"], floor)


def _native(doc, repeats, factor) -> GateResult:
    from .kernel_bench import run_native_smoke

    return _native_or_skip(run_native_smoke(repeats=repeats), NATIVE_FLOOR)


def _replay(doc, repeats, factor) -> GateResult:
    from .hw_bench import run_hw_native_smoke

    return _native_or_skip(run_hw_native_smoke(repeats=repeats), REPLAY_FLOOR)


def _streaming(doc, repeats, factor) -> GateResult:
    from .streaming_bench import run_streaming_smoke

    current = run_streaming_smoke(repeats=repeats)["baseline_speedup"]
    return _at_least(current, STREAMING_FLOOR)


def _mesh(doc, repeats, factor) -> GateResult:
    """Skips on 1-CPU hosts, where N processes time-slice one core."""
    from .mesh_bench import run_mesh_smoke

    cpus = os.cpu_count() or 1
    if cpus < 2:
        reason = f"host has {cpus} CPU(s); N processes time-slice one core"
        return None, reason, MESH_FLOOR
    current = run_mesh_smoke(repeats=repeats)["baseline_speedup"]
    return _at_least(current, MESH_FLOOR)


def _router(doc, repeats, factor) -> GateResult:
    """Refit from the recorded matrix and re-score both policies against
    the recorded seconds (deterministic), then a live probe asserting
    fitted and constant services color byte-identically to
    ``repro.color``."""
    from ..service.decision import fit_decision_model
    from .router_bench import evaluate_policies, run_router_parity

    evaluation = evaluate_policies(doc["matrix"], fit_decision_model(doc["matrix"]))
    current = {
        "agreement": float(evaluation["agreement"]),
        "latency_reduction": float(evaluation["latency_reduction"]),
        "parity_colorings_checked": run_router_parity(),
    }
    floors = {
        "agreement": ROUTER_AGREEMENT_FLOOR,
        "latency_reduction": ROUTER_REDUCTION_FLOOR,
    }
    ok = all(current[k] >= floor for k, floor in floors.items())
    return ok, current, floors


def _hbm(doc, repeats, factor) -> GateResult:
    """Deterministic (modeled cycles): engine parity on every profile x
    layout raises on failure, then the compression floor."""
    from .hbm_sweep import run_hbm_smoke

    return _at_least(run_hbm_smoke()["min_delta_reduction"], HBM_FLOOR)


class Gate(NamedTuple):
    name: str
    bench: str
    run: Callable[[Dict[str, object], int, Optional[float]], GateResult]


GATES: Tuple[Gate, ...] = (
    Gate("kernels", "kernels", _kernels),
    Gate("obs", "kernels", _obs),
    Gate("hw", "hw", _hw),
    Gate("service", "service", _service),
    Gate("native", "kernels", _native),
    Gate("replay", "hw", _replay),
    Gate("streaming", "streaming", _streaming),
    Gate("mesh", "mesh", _mesh),
    Gate("router", "router", _router),
    Gate("hbm", "hbm", _hbm),
)


def run_gate(
    name: str, *, repeats: int = 3, factor: Optional[float] = None
) -> GateResult:
    """Run one gate of :data:`GATES` by name against its BENCH document."""
    gate = next(g for g in GATES if g.name == name)
    return gate.run(load_bench(gate.bench), repeats, factor)
