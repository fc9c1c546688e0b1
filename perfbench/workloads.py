"""Seeded inputs of the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same graphs, the same request order and the same delta
batches.  The program under test only ever receives the generated
inputs.  Reference colorings are computed here too, always outside the
timed window, so every response can be checked byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

import repro
from repro.experiments.datasets import REGISTRY, load_dataset
from repro.graph import CSRGraph, degree_based_grouping, erdos_renyi, sort_edges

COLD_BLOCK = ("small",) * 5 + ("GD", "GD", "CD", "RC", "CF")
"""Each run of ten cold requests holds these, in seeded order: half
small ER graphs, half relabelled stand-ins.  Fixed shares keep the mix
equal across seeds.  Stand-in latency has one mode per dataset (RC and
CD fastest, then GD, then CF); with GD twice, the large-class median
falls inside the GD mode instead of in the gap between two modes, where
it would jump from run to run."""

PAPER_KEYS = ("GD", "RC", "CF")
"""Paper-tier graphs of ``paper-inproc``: power-law, road (largest n),
dense community."""

ZIPF_S = 1.1
HOT_LARGE_CYCLE = ("CD", "RC", "GD", "CF")
"""Stand-in behind each large catalog rank, cycling from rank 1.

The catalog alternates small and large ranks, 24 in all.  Popularity
by class and dataset is fixed and only the graph instances vary with
the seed: when the seed also picked which dataset is most popular, the
op mix (and so every figure) moved by up to 2.7x between seeds."""
HOT_CATALOG = 24
HOT_SMALL_VERTICES = 250
HOT_SMALL_DEGREE = 8.0
"""Small catalog graphs share one size, for the same reason."""
APPLY_EVERY = 4
"""On ``wire-hot`` every 4th operation is a delta batch."""
DELTA_EDGES = 64
"""Edges per delta batch: half fresh additions, half removals of the
previous batch's additions."""


@dataclass
class Request:
    """One color request, with its reference answer computed on first use."""

    cls: str  # "small" or "large"
    graph: CSRGraph
    _reference: Optional[np.ndarray] = None

    @property
    def reference(self) -> np.ndarray:
        if self._reference is None:
            self._reference = reference_colors(self.graph)
        return self._reference

    @property
    def edges(self) -> int:
        return self.graph.num_undirected_edges


@dataclass
class SessionPlan:
    """One ``wire-hot`` session: graph, its reference colors, delta batches."""

    graph: CSRGraph
    reference: np.ndarray
    batches: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    """``(additions, removals)`` pairs, each an ``(k, 2)`` int64 array."""


def reference_colors(graph: CSRGraph) -> np.ndarray:
    """The answer every service response must equal byte for byte."""
    return np.asarray(repro.color(graph, "bitwise").colors, dtype=np.int64)


def proper(graph: CSRGraph, colors: np.ndarray) -> bool:
    """Vectorized properness: every vertex colored, no edge monochrome."""
    colors = np.asarray(colors)
    if colors.shape != (graph.num_vertices,) or np.any(colors < 1):
        return False
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.offsets))
    return not np.any(colors[src] == colors[graph.edges])


def permuted(graph: CSRGraph, rng: np.random.Generator, name: str) -> CSRGraph:
    """A fresh CSR of ``graph`` under a seeded vertex relabelling."""
    n = graph.num_vertices
    perm = rng.permutation(n)  # old id -> new id
    inv = np.argsort(perm)  # new id -> old id
    deg = np.diff(graph.offsets)
    new_deg = deg[inv]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_deg, out=offsets[1:])
    # Position j of new row r reads old position offsets[inv[r]] + j.
    gather = np.repeat(graph.offsets[inv] - offsets[:-1], new_deg) + np.arange(
        offsets[-1], dtype=np.int64
    )
    return CSRGraph(offsets=offsets, edges=perm[graph.edges[gather]], name=name)


def small_graph(rng: np.random.Generator, n: int = 0, degree: float = 0.0) -> CSRGraph:
    """An Erdős–Rényi graph for the micro-batch lane: ``n`` vertices of
    mean degree ``degree``, each drawn (100–400, 4–12) when left at 0."""
    n = n or int(rng.integers(100, 401))
    degree = degree or float(rng.uniform(4.0, 12.0))
    return erdos_renyi(n, degree / (n - 1), seed=int(rng.integers(2**31)), name="er")


def cold_request(seed: int, index: int, stream: int = 0) -> Request:
    """Request ``index`` of a cold stream: a pure function of its arguments.

    Every graph is drawn fresh (random ER graph or random relabelling of
    a stand-in), so no two requests share a fingerprint and the result
    cache never hits.  Requests are rebuilt from their index when they
    are checked, so a run never holds its whole stream in memory.
    ``stream`` selects an independent sequence (the warm-up uses its own).
    """
    block, pos = divmod(index, len(COLD_BLOCK))
    order = np.random.default_rng([seed, 1, stream, block]).permutation(len(COLD_BLOCK))
    kind = COLD_BLOCK[order[pos]]
    rng = np.random.default_rng([seed, 1, stream, block, pos])
    if kind == "small":
        return Request("small", small_graph(rng))
    return Request("large", permuted(load_dataset(kind), rng, name=f"{kind}-perm"))


@dataclass
class HotPlan:
    catalog: List[Request]
    picks: List[np.ndarray]
    """Per connection: catalog indices of its color operations, in order."""
    sessions: List[SessionPlan]
    """Per connection: its session."""


def hot_plan(seed: int, connections: int, ops_per_connection: int) -> HotPlan:
    """Zipf repeats over a fixed catalog, plus one session per connection.

    Catalog rank ``r`` (0 = most popular) is a 250-vertex ER graph when
    ``r`` is even and a relabelled ``HOT_LARGE_CYCLE`` stand-in when it
    is odd.  Connection ``i`` holds its session on catalog rank ``i``, so
    its writes invalidate hot cache entries.
    """
    rng = np.random.default_rng([seed, 2])
    catalog = []
    for rank in range(HOT_CATALOG):
        if rank % 2 == 0:
            cls, graph = "small", small_graph(rng, HOT_SMALL_VERTICES, HOT_SMALL_DEGREE)
        else:
            key = HOT_LARGE_CYCLE[(rank // 2) % len(HOT_LARGE_CYCLE)]
            cls, graph = "large", permuted(load_dataset(key), rng, name=f"{key}-perm")
        catalog.append(Request(cls, graph, reference_colors(graph)))  # before timing
    weights = 1.0 / np.arange(1, HOT_CATALOG + 1) ** ZIPF_S
    applies = ops_per_connection // APPLY_EVERY
    picks = [
        rng.choice(HOT_CATALOG, size=ops_per_connection - applies, p=weights / weights.sum())
        for _ in range(connections)
    ]
    sessions = [
        SessionPlan(
            catalog[i].graph,
            catalog[i].reference,
            delta_batches(catalog[i].graph, rng, applies),
        )
        for i in range(connections)
    ]
    return HotPlan(catalog, picks, sessions)


def delta_batches(
    graph: CSRGraph, rng: np.random.Generator, count: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Batch ``j`` adds fresh non-edges and removes batch ``j-1``'s adds."""
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.offsets))
    existing = np.sort(src * n + graph.edges)
    half = DELTA_EDGES // 2
    batches = []
    previous = np.zeros((0, 2), dtype=np.int64)
    for _ in range(count):
        adds = _fresh_pairs(rng, n, half, existing, previous)
        batches.append((adds, previous))
        previous = adds
    return batches


def _fresh_pairs(
    rng: np.random.Generator,
    n: int,
    k: int,
    existing: np.ndarray,
    exclude: np.ndarray,
) -> np.ndarray:
    chosen: List[Tuple[int, int]] = []
    taken = {(int(u), int(v)) for u, v in exclude}
    while len(chosen) < k:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        key = u * n + v
        pos = np.searchsorted(existing, key)
        if pos < existing.size and existing[pos] == key:
            continue
        if (u, v) in taken:
            continue
        taken.add((u, v))
        chosen.append((u, v))
    return np.asarray(chosen, dtype=np.int64)


@dataclass
class PaperGraph:
    key: str
    graph: CSRGraph
    load_s: float
    preprocess_s: float


def paper_graph(key: str, seed: int) -> PaperGraph:
    """Build one paper-tier graph under a seeded relabelling, then run the
    paper's preprocessing (DBG reorder + edge sort) on it."""
    rng = np.random.default_rng([seed, 3, PAPER_KEYS.index(key)])
    t0 = time.perf_counter()
    raw = REGISTRY[key].build_raw("paper")
    raw = permuted(raw, rng, name=raw.name)
    t1 = time.perf_counter()
    graph = sort_edges(degree_based_grouping(raw).graph)
    t2 = time.perf_counter()
    return PaperGraph(key, graph, t1 - t0, t2 - t1)


def fresh(graph: CSRGraph) -> CSRGraph:
    """A new CSRGraph object over the same arrays (empty per-graph memo)."""
    return CSRGraph(offsets=graph.offsets, edges=graph.edges, name=graph.name)

