"""``paper-inproc``: the library path and the accelerator model, no wire.

Each pass colors every paper-tier graph through ``repro.color`` on the
native tier and simulates it on the batched accelerator engine
(ddr4-u200, plain layout, P=16, the dataset's scaled HDV cache), plus
one CF cell on hbm2 with the delta-compressed layout.  Every call gets a
fresh ``CSRGraph`` object, so per-graph memos are rebuilt as a new
caller would rebuild them.
"""

from __future__ import annotations

import dataclasses
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import repro
from repro.experiments.datasets import REGISTRY
from repro.graph.layout import build_layout
from repro.hw import mem

from workloads import PAPER_KEYS, PaperGraph, fresh, paper_graph, proper, reference_colors

PARALLELISM = 16
HBM_CELL = ("CF", "hbm2", "delta-compressed")

COUNTERS = (
    "makespan_cycles",
    "dram_reads",
    "merged_reads",
    "edge_blocks_fetched",
    "conflicts",
    "stall_cycles",
)


@dataclass
class Cell:
    key: str
    profile: str
    layout: str
    config: object


@dataclass
class PaperRun:
    color_ops: List[Tuple[str, float, int]]
    """(graph key, seconds, undirected edges) per library coloring."""
    sim_ops: List[Tuple[Cell, float, int]]
    passes: List[Dict[str, float]]
    stats: Dict[Tuple[str, str, str], dict]
    attempted: int
    failed: int
    stats_repeat: bool
    elapsed_s: float


def setup(seed: int) -> Tuple[List[PaperGraph], Dict[str, np.ndarray], List[Cell]]:
    """Load and preprocess the paper-tier graphs; references before timing."""
    graphs = [paper_graph(key, seed) for key in PAPER_KEYS]
    references = {pg.key: reference_colors(pg.graph) for pg in graphs}
    cells = []
    for pg in graphs:
        config = REGISTRY[pg.key].config_for(PARALLELISM, pg.graph.num_vertices)
        cells.append(Cell(pg.key, "ddr4-u200", "plain", config))
        if pg.key == HBM_CELL[0]:
            hbm = mem.profile_config(
                HBM_CELL[1], parallelism=PARALLELISM, cache_bytes=config.cache_bytes
            )
            cells.append(Cell(pg.key, HBM_CELL[1], HBM_CELL[2], hbm))
    return graphs, references, cells


def run(graphs: List[PaperGraph], references: Dict[str, np.ndarray],
        cells: List[Cell], seconds: float) -> PaperRun:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    by_key = {pg.key: pg.graph for pg in graphs}
    color_ops, sim_ops, passes = [], [], []
    first_stats: Dict[Tuple[str, str, str], dict] = {}
    attempted = failed = 0
    stats_repeat = True
    clock = time.perf_counter
    start = clock()
    while not passes or clock() - start < seconds:
        this_pass = {"color_s": 0.0, "sim_s": 0.0, "all_sim_s": 0.0, "replay_s": 0.0}
        native_s: Dict[str, float] = {}
        for pg in graphs:
            g = fresh(pg.graph)
            t0 = clock()
            out = repro.color(g, "bitwise", backend="native")
            dt = clock() - t0
            attempted += 1
            if not np.array_equal(out.colors, references[pg.key]):
                failed += 1
            color_ops.append((pg.key, dt, g.num_undirected_edges))
            native_s[pg.key] = dt
            this_pass["color_s"] += dt
        for cell in cells:
            g = fresh(by_key[cell.key])
            t0 = clock()
            res = repro.color(
                g, "bitwise", backend="hw", engine="batched",
                config=cell.config, layout=cell.layout,
            )
            dt = clock() - t0
            attempted += 1
            if not np.array_equal(res.colors, references[cell.key]):
                failed += 1
            stats = dataclasses.asdict(res.stats)
            key = (cell.key, cell.profile, cell.layout)
            if key not in first_stats:
                first_stats[key] = stats
            elif stats != first_stats[key]:
                stats_repeat = False
                failed += 1
            sim_ops.append((cell, dt, g.num_undirected_edges))
            this_pass["all_sim_s"] += dt
            if cell.profile == "ddr4-u200":
                this_pass["sim_s"] += dt
                this_pass["replay_s"] += dt - native_s[cell.key]
        passes.append(this_pass)
    elapsed = clock() - start
    for pg in graphs:  # the references themselves must be proper colorings
        if not proper(pg.graph, references[pg.key]):
            failed += 1
    return PaperRun(color_ops, sim_ops, passes, first_stats,
                    attempted, failed, stats_repeat, elapsed)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(result: PaperRun, graphs: List[PaperGraph]) -> Dict[str, float]:
    """Per-layer figures of the accelerator model and the graph pipeline."""
    ddr4 = {k: v for k, v in result.stats.items() if k[1] == "ddr4-u200"}
    hbm = result.stats[HBM_CELL]
    tasks = sum(s["hdv_tasks"] + s["ldv_tasks"] for s in ddr4.values())
    host_ms = float(np.median([p["sim_s"] for p in result.passes])) * 1e3
    out = {
        "hw.host_ms": host_ms,
        "hw.replay_ms": float(np.median([p["replay_s"] for p in result.passes])) * 1e3,
        "hw.host_ns_per_task": host_ms * 1e6 / max(1, tasks),
        "kernels.color_ms.paper": float(np.median([p["color_s"] for p in result.passes])) * 1e3,
        "graph.load_s": sum(pg.load_s for pg in graphs),
        "graph.preprocess_s": sum(pg.preprocess_s for pg in graphs),
    }
    for name in COUNTERS:
        out[f"hw.{name}"] = float(sum(s[name] for s in ddr4.values()))
    for name in ("makespan_cycles", "dram_reads", "edge_blocks_fetched"):
        out[f"hw.hbm2.{name}"] = float(hbm[name])
    out["model_cycles"] = float(sum(s["makespan_cycles"] for s in result.stats.values()))
    sim_s = sum(dt for _, dt, _ in result.sim_ops)
    out["sim_edges_per_s"] = sum(m for _, _, m in result.sim_ops) / sim_s
    cf = next(pg.graph for pg in graphs if pg.key == HBM_CELL[0])
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        build_layout(cf, HBM_CELL[2])
        samples.append(time.perf_counter() - t0)
    out["layout.build_ms"] = float(np.median(samples)) * 1e3
    return out
