"""Tests for the shared-memory CSR transport."""

import numpy as np
import pytest

from repro.graph import erdos_renyi, rmat, CSRGraph
from repro.parallel import SharedCSR, attach_graph
from repro.parallel import shm as shm_mod


@pytest.fixture
def graph():
    return rmat(8, 4, seed=5, name="shm-test")


class TestSharedCSR:
    def test_round_trip_same_process(self, graph):
        with SharedCSR(graph) as shared:
            view = attach_graph(shared.spec)
            assert view.num_vertices == graph.num_vertices
            assert view.num_edges == graph.num_edges
            assert view.name == graph.name
            assert np.array_equal(view.offsets, graph.offsets)
            assert np.array_equal(view.edges, graph.edges)
            # Drop our attachment before the owner unlinks.
            shm_mod._ATTACHED.pop(shared.spec.offsets_name, None)

    def test_attach_is_idempotent(self, graph):
        with SharedCSR(graph) as shared:
            a = attach_graph(shared.spec)
            b = attach_graph(shared.spec)
            assert a is b
            shm_mod._ATTACHED.pop(shared.spec.offsets_name, None)

    def test_meta_travels(self):
        g = erdos_renyi(50, 0.1, seed=1, name="meta-test")
        g.meta["origin"] = "synthetic"
        with SharedCSR(g) as shared:
            view = attach_graph(shared.spec)
            assert view.meta["origin"] == "synthetic"
            shm_mod._ATTACHED.pop(shared.spec.offsets_name, None)

    def test_empty_graph(self):
        g = CSRGraph(
            offsets=np.zeros(1, dtype=np.int64),
            edges=np.zeros(0, dtype=np.int64),
            name="empty",
        )
        with SharedCSR(g) as shared:
            view = attach_graph(shared.spec)
            assert view.num_vertices == 0
            assert view.num_edges == 0
            shm_mod._ATTACHED.pop(shared.spec.offsets_name, None)

    def test_for_graph_memoises(self, graph):
        a = SharedCSR.for_graph(graph)
        b = SharedCSR.for_graph(graph)
        assert a is b
        assert graph._cache["parallel.shared_csr"] is a

    def test_spec_is_small(self, graph):
        """Only names and scalars cross the process boundary per task."""
        import pickle

        with SharedCSR(graph) as shared:
            assert len(pickle.dumps(shared.spec)) < 1024


_TEARDOWN_PROBE = """
import sys
import repro
from repro.coloring import assert_proper_coloring
from repro.graph import rmat
from repro.parallel.pool import pool_map

if sys.argv[1] == "pool-first":
    pool_map(abs, [-1, -2], 2)  # fork the workers before any block exists
# The graphs (and their exported blocks) stay alive until interpreter exit.
graphs = [rmat(10, 8, seed=seed, name=f"teardown{seed}") for seed in (1, 2)]
for g in graphs:
    assert_proper_coloring(g, repro.color(g, backend="parallel", workers=2).colors)
"""


def _shm_segments():
    import os

    return {p for p in os.listdir("/dev/shm") if p.startswith("psm_")}


@pytest.mark.skipif(
    not __import__("os").path.isdir("/dev/shm"), reason="no /dev/shm"
)
@pytest.mark.parametrize("order", ["blocks-first", "pool-first"])
def test_parallel_coloring_tears_down_cleanly(order):
    """Each block is registered with the resource tracker once and
    unregistered once, whether the pool forks before or after the first
    export: exit prints no tracker traceback and leaves no segment
    behind."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    before = _shm_segments()
    proc = subprocess.run(
        [sys.executable, "-c", _TEARDOWN_PROBE, order],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr
    assert not _shm_segments() - before
