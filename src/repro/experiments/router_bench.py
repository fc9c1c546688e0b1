"""Router autotuning benchmark: fitted decision surface vs hand-set thresholds.

The scenario sweep (:mod:`repro.experiments.scenario_sweep`) measures
every fast backend over the sampled generator parameter space; this
module scores the two routing policies on that matrix:

* **fitted** — the argmin of the per-backend latency surfaces
  (:func:`repro.service.decision.fit_decision_model`), restricted to the
  parity-neutral backends the router may actually substitute;
* **constant** — the hand-set ``small/large/skew`` thresholds
  (:func:`repro.service.decision.constant_label`), the pre-autotune
  router behaviour and its documented fallback.

Because both policies are scored against the *recorded* per-backend
seconds, the evaluation is deterministic given the matrix — the bench
gate (gate 9 of :mod:`repro.experiments.gates`) refits from the checked-in
``BENCH_router.json`` and re-scores without re-timing anything, so CI
catches a fit or router change that degrades agreement, not host noise.
A small **live** byte-parity check rides along: a service booted with
the fitted surface and one on the constants must both color the probe
graphs byte-identically to a direct :func:`repro.color` call.

The acceptance record (ISSUE 9): fitted choice matches the
measured-fastest parity-neutral backend on >= 90 % of matrix points, and
mean routed latency drops >= 10 % vs the constants.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..service.decision import (
    PARITY_NEUTRAL_BACKENDS,
    DecisionModel,
    constant_label,
    fit_decision_model,
)
from ..service.router import MICROBATCH_CROSSOVER
from ..service.stats import GraphFeatures
from .gates import ROUTER_AGREEMENT_FLOOR, ROUTER_REDUCTION_FLOOR
from .scenario_sweep import (
    FULL_AXES,
    run_scenario_sweep,
    scenario_graph,
    slow_regions,
)

__all__ = [
    "evaluate_policies",
    "run_router_bench",
    "run_router_parity",
]

_PARITY_PROBES = (
    (200, 0.3, 0.0, 4),
    (700, 0.6, 0.0, 8),
    (3000, 0.45, 0.6, 6),
)
"""Small scenario points the live parity check colors through both
routing policies (small on purpose — the check rides in the smoke gate)."""


def evaluate_policies(
    table: Dict[str, object],
    model: Optional[DecisionModel] = None,
    *,
    large_vertices: int = 50_000,
    skew_threshold: float = 8.0,
    rel_tol: float = 0.02,
) -> Dict[str, object]:
    """Score fitted vs constant routing on the recorded matrix.

    Per point, each policy's routed latency is the *measured* seconds of
    the backend it picks (the constant policy may pick parity-divergent
    ``parallel`` — that is its real pre-autotune behaviour and its real
    latency; the fitted policy is restricted to the parity-neutral
    pool).  Deterministic given the table: nothing is re-timed.
    """
    if model is None:
        model = fit_decision_model(table)
    tier = str(table.get("software_tier", "vectorized"))
    small = MICROBATCH_CROSSOVER.get(tier, MICROBATCH_CROSSOVER["vectorized"])
    points = list(table.get("points", ()))
    if not points:
        raise ValueError("sweep table has no points to evaluate")
    rows: List[Dict[str, object]] = []
    agree = 0
    fitted_total = 0.0
    constant_total = 0.0
    for p in points:
        seconds = {b: float(s) for b, s in p["seconds"].items()}
        features = GraphFeatures.from_dict(p["features"])
        neutral = [b for b in seconds if b in PARITY_NEUTRAL_BACKENDS]
        fitted = model.choose(features, available=neutral)
        constant = constant_label(
            features,
            small_vertices=small,
            large_vertices=large_vertices,
            skew_threshold=skew_threshold,
            software_tier=tier,
        )
        if constant not in seconds:
            constant = tier
        fastest = min(neutral, key=seconds.get)
        matched = fitted == fastest or math.isclose(
            seconds[fitted], seconds[fastest], rel_tol=rel_tol
        )
        agree += matched
        fitted_total += seconds[fitted]
        constant_total += seconds[constant]
        rows.append(
            {
                "params": dict(p["params"]),
                "fitted": fitted,
                "constant": constant,
                "fastest": fastest,
                "fitted_s": seconds[fitted],
                "constant_s": seconds[constant],
                "fastest_s": seconds[fastest],
                "matched_fastest": bool(matched),
            }
        )
    fitted_mean = fitted_total / len(points)
    constant_mean = constant_total / len(points)
    return {
        "points": len(points),
        "agreement": agree / len(points),
        "fitted_mean_s": fitted_mean,
        "constant_mean_s": constant_mean,
        "latency_reduction": (
            1.0 - fitted_mean / constant_mean if constant_mean > 0 else 0.0
        ),
        "software_tier": tier,
        "rows": rows,
    }


def run_router_parity() -> int:
    """Color the probe graphs through fitted and constant services.

    Both must be byte-identical to direct :func:`repro.color`; returns
    the number of colorings checked.  The fitted surface is trained on a
    one-size mini grid spanning the probes — the point is exercising the
    fitted code path, not the fit quality.
    """
    import tempfile

    from .. import color as direct_color
    from ..service import ColoringService, ServiceConfig

    graphs = [
        scenario_graph(*params, seed=11, name=f"router-probe{i}")
        for i, params in enumerate(_PARITY_PROBES)
    ]
    table = run_scenario_sweep(
        sizes=(256, 2048), skews=(0.3, 0.6), communities=(0.0,),
        densities=(4,), repeats=1, obs_counters=False,
    )
    model = fit_decision_model(table)
    with tempfile.NamedTemporaryFile(suffix=".json", mode="w", delete=False) as f:
        model_path = Path(f.name)
    model.save(model_path)
    checked = 0
    try:
        for config in (
            ServiceConfig(router_table=model_path, cache_capacity=0),
            ServiceConfig(cache_capacity=0),
        ):
            with ColoringService(config) as svc:
                for g in graphs:
                    routed = svc.color(g)
                    if not np.array_equal(
                        routed.colors, direct_color(g, "bitwise").colors
                    ):
                        raise AssertionError(
                            f"routing changed the colors of {g.name} "
                            f"(route: {routed.route})"
                        )
                    checked += 1
    finally:
        model_path.unlink(missing_ok=True)
    return checked


def run_router_bench(
    *,
    axes: Optional[Dict[str, tuple]] = None,
    repeats: int = 2,
    seed: int = 0,
    progress=None,
) -> Dict[str, object]:
    """The full router autotuning record behind ``BENCH_router.json``.

    Runs the scenario sweep (default: the 48-point
    :data:`~repro.experiments.scenario_sweep.FULL_AXES` grid), fits the
    decision surface, scores both policies against the matrix, runs the
    live parity check, and returns the JSON-ready document.
    """
    axes = dict(FULL_AXES if axes is None else axes)
    table = run_scenario_sweep(
        **axes, repeats=repeats, seed=seed, progress=progress
    )
    model = fit_decision_model(table)
    evaluation = evaluate_policies(table, model)
    parity_checked = run_router_parity()
    return {
        "unit": (
            "seconds, best of repeats (per-backend wall clock over the "
            "scenario grid); policies scored on recorded seconds"
        ),
        "repeats": int(repeats),
        "host_cpus": os.cpu_count() or 1,
        "agreement_floor": ROUTER_AGREEMENT_FLOOR,
        "reduction_floor": ROUTER_REDUCTION_FLOOR,
        "matrix": table,
        "model_meta": dict(model.meta),
        "evaluation": evaluation,
        "slow_regions": slow_regions(table),
        "smoke": {
            "agreement": evaluation["agreement"],
            "fitted_mean_s": evaluation["fitted_mean_s"],
            "constant_mean_s": evaluation["constant_mean_s"],
            "latency_reduction": evaluation["latency_reduction"],
            "parity_colorings_checked": parity_checked,
        },
    }
