"""Streaming-lane benchmark: sustained deltas/sec vs naive full recolor.

The session lane's claim is economic: absorbing an edge-delta batch with
vectorized incremental repair (:meth:`SessionManager.apply`) is far
cheaper than what a session-less service must do — re-submit the whole
mutated graph and recolor it from scratch per batch.  This module
measures that on an **RMAT stream**: register a prefix of a power-law
graph, then stream the remaining edges (plus random expirations) in
fixed-size batches.

Correctness is asserted before any timing is kept: a separate untimed
pass replays the same stream, validates the coloring is proper after
**every** batch, and checks the maintained structure fingerprints
identically to a from-scratch replay of the deltas.  The timed passes
then compare:

* **session** — one :meth:`apply` per batch on a live session;
* **naive** — per batch, rebuild the mutated snapshot and run a full
  :func:`repro.color` on it (the cost a one-shot service pays).

Entry points mirror :mod:`repro.experiments.service_bench`:

* :func:`run_streaming_bench` — the stream-size sweep, driven by
  ``benchmarks/bench_streaming.py``;
* :func:`run_streaming_smoke` — one fixed scenario behind gate 7
  (:mod:`repro.experiments.gates`).  The gate is an **absolute floor**
  (≥ 10x): the failure mode is the incremental path silently degrading
  to per-batch full recolors, which reads as ~1x.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..graph.generators import rmat
from .gates import STREAMING_FLOOR, best_of

__all__ = [
    "STREAMING_SMOKE_SPEC",
    "run_streaming_bench",
    "run_streaming_smoke",
]

STREAMING_SMOKE_SPEC = (
    "rmat(scale=14, epv=8) stream: 90% registered, then 10 batches of "
    "160 held-out additions + 40 random expirations each"
)

_SMOKE = dict(scale=14, epv=8, batches=10, adds_per_batch=160, seed=11)


def _rmat_stream(
    *, scale: int, epv: int, batches: int, seed: int,
    adds_per_batch: Optional[int] = None,
) -> Tuple[object, List[Tuple[np.ndarray, np.ndarray]]]:
    """Build the scenario: a registered prefix graph plus delta batches.

    The full RMAT edge set is split 90/10; the held-out 10% streams in as
    additions, and each batch also expires a few random resident edges —
    the arrive/expire mix of a temporal graph.  ``adds_per_batch`` pins
    the batch size regardless of graph scale: a real stream's batch size
    is set by arrival rate and latency budget, not by graph size, and the
    economics of the session lane hinge on exactly that decoupling
    (apply cost tracks the batch, full-recolor cost tracks the graph).
    """
    full = rmat(scale, epv, seed=seed)
    pairs = full.edge_array()
    keep = pairs[:, 0] < pairs[:, 1]  # one orientation per undirected edge
    src, dst = pairs[keep, 0], pairs[keep, 1]
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(src.size)
    src, dst = src[order], dst[order]
    cut = int(src.size * 0.9)
    from ..graph.csr import CSRGraph

    prefix = CSRGraph.from_arrays(
        full.num_vertices, src[:cut], dst[:cut],
        symmetrize=True, name=f"rmat{scale}-prefix",
    )
    tail = np.stack([src[cut:], dst[cut:]], axis=1)
    per_batch = max(1, tail.shape[0] // batches)
    if adds_per_batch is not None:
        per_batch = min(per_batch, adds_per_batch)
    deltas: List[Tuple[np.ndarray, np.ndarray]] = []
    for b in range(batches):
        adds = tail[b * per_batch : (b + 1) * per_batch]
        n_rem = max(1, per_batch // 4)
        # Expire random registered-prefix edges (misses are no-ops).
        pick = rng.integers(0, cut, size=n_rem)
        removals = np.stack([src[pick], dst[pick]], axis=1)
        deltas.append((adds, removals))
    return prefix, deltas


def _verified_stream(prefix, deltas) -> Dict[str, object]:
    """Untimed correctness pass: validity after every batch + parity."""
    from .. import color as direct_color
    from ..coloring.incremental import IncrementalColoring

    inc = IncrementalColoring.from_graph(
        prefix, colors=direct_color(prefix).colors
    )
    inc.validate()
    recolored = 0
    for adds, removals in deltas:
        diff = inc.apply_batch(adds, removals)
        inc.validate()  # proper after every batch, or this raises
        recolored += int(diff.changed.size)
    # The maintained structure must equal the naive replay's structure.
    snapshot = inc.to_graph()
    naive = _naive_structure(prefix, deltas)
    if snapshot.fingerprint() != naive.fingerprint():
        raise AssertionError(
            "incremental structure diverged from the naive replay"
        )
    return {
        "final_n_colors": inc.n_colors,
        "vertices_recolored": recolored,
        "validated_batches": len(deltas),
    }


def _naive_structure(prefix, deltas):
    """The mutated snapshot built the one-shot way (structure only)."""
    from ..coloring.incremental import IncrementalColoring

    struct = IncrementalColoring.from_graph(
        prefix, colors=np.zeros(prefix.num_vertices, dtype=np.int64)
    )
    for adds, removals in deltas:
        struct.apply_batch(adds, removals)
    return struct.to_graph()


def _session_stream_s(prefix, deltas, *, churn_threshold: float) -> float:
    """Wall clock of the whole stream through a live service session."""
    from ..obs import Registry
    from ..service import ColoringService, ServiceConfig

    svc = ColoringService(
        ServiceConfig(
            executors=2,
            cache_capacity=0,
            session_churn_threshold=churn_threshold,
            registry=Registry(enabled=False),
        )
    )
    try:
        info = svc.sessions.register(prefix)
        start = time.perf_counter()
        for adds, removals in deltas:
            svc.sessions.apply(info.session_id, adds, removals)
        elapsed = time.perf_counter() - start
    finally:
        svc.close(drain=False)
    return elapsed


def _naive_stream_s(prefix, deltas) -> float:
    """Wall clock of the one-shot answer: full recolor per batch."""
    from .. import color as direct_color
    from ..coloring.incremental import IncrementalColoring

    struct = IncrementalColoring.from_graph(
        prefix, colors=np.zeros(prefix.num_vertices, dtype=np.int64)
    )
    start = time.perf_counter()
    for adds, removals in deltas:
        struct.apply_batch(adds, removals)
        direct_color(struct.to_graph())
    return time.perf_counter() - start


def _scenario_entry(
    *, scale: int, epv: int, batches: int, seed: int,
    repeats: int, churn_threshold: float = 0.25,
    adds_per_batch: Optional[int] = None,
) -> Dict[str, object]:
    prefix, deltas = _rmat_stream(
        scale=scale, epv=epv, batches=batches, seed=seed,
        adds_per_batch=adds_per_batch,
    )
    checks = _verified_stream(prefix, deltas)
    n_deltas = sum(a.shape[0] + r.shape[0] for a, r in deltas)
    session_s = best_of(
        lambda: _session_stream_s(prefix, deltas, churn_threshold=churn_threshold),
        repeats,
    )
    naive_s = best_of(lambda: _naive_stream_s(prefix, deltas), repeats)
    return {
        "scale": scale,
        "edges_per_vertex": epv,
        "num_vertices": prefix.num_vertices,
        "registered_edges": prefix.num_undirected_edges,
        "batches": batches,
        "deltas": n_deltas,
        "session_s": session_s,
        "naive_s": naive_s,
        "session_deltas_per_s": n_deltas / session_s if session_s > 0 else float("inf"),
        "naive_deltas_per_s": n_deltas / naive_s if naive_s > 0 else float("inf"),
        "speedup": naive_s / session_s if session_s > 0 else float("inf"),
        **checks,
    }


def run_streaming_bench(
    scales: Iterable[int] = (11, 12, 13, 14),
    *,
    repeats: int = 3,
) -> Dict[str, object]:
    """The RMAT stream at several sizes; JSON-ready document.

    Each entry re-asserts validity after every batch (untimed) before
    timing the session lane against the naive per-batch full recolor.
    Batch size is held fixed across scales, so the sweep shows the
    session lane's advantage *growing* with graph size — the naive side
    pays a full recolor of an ever-larger graph for the same deltas.
    """
    entries = [
        _scenario_entry(
            scale=scale, epv=8, batches=10, seed=11 + scale,
            repeats=repeats, adds_per_batch=160,
        )
        for scale in scales
    ]
    return {
        "unit": "seconds, best of repeats (whole-stream wall clock)",
        "repeats": repeats,
        "floor_speedup": STREAMING_FLOOR,
        "entries": entries,
        "smoke": run_streaming_smoke(repeats=repeats),
    }


def run_streaming_smoke(*, repeats: int = 3) -> Dict[str, object]:
    """The fixed scenario (see ``STREAMING_SMOKE_SPEC``), timed both ways."""
    entry = _scenario_entry(**_SMOKE, repeats=repeats)
    return {
        "workload": STREAMING_SMOKE_SPEC,
        **{
            k: entry[k]
            for k in (
                "deltas", "session_s", "naive_s",
                "session_deltas_per_s", "naive_deltas_per_s",
                "validated_batches", "final_n_colors",
            )
        },
        "baseline_speedup": entry["speedup"],
    }
