"""Zero-copy CSR transport via ``multiprocessing.shared_memory``.

Pickling a multi-hundred-thousand-slot CSR graph into every pool worker
would copy the whole structure per task — the software equivalent of
funnelling every BWPE through one DRAM channel.  Instead the parent
exports ``offsets`` and ``edges`` into two named shared-memory blocks
once (:class:`SharedCSR`), ships only the tiny :class:`CSRSpec` handle,
and each worker maps the blocks into a read-only :class:`CSRGraph` view
(:func:`attach_graph`) — no per-task serialization at all.

Lifecycle: the parent owns the blocks (``close`` + ``unlink`` via the
context manager); workers only ``close`` their attachments.  Every block
is registered with the resource tracker once, by its owner, and
unregistered once, by the owner's ``unlink``.  :func:`mp_context` starts
the tracker before any child exists, so fork and spawn children share
the owner's tracker; an attachment's own registration (CPython < 3.13
has no ``track=False``) is then a no-op on that shared set, and the
attachment must not unregister it — doing so would drop the owner's
entry, make the owner's ``unlink`` a tracker ``KeyError`` and leave a
crashed owner's blocks behind in ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "CSRSpec",
    "SharedCSR",
    "SharedI64Array",
    "attach_array",
    "attach_graph",
    "detach_all",
    "mp_context",
]


def mp_context():
    """The preferred multiprocessing context: ``fork`` where available.

    Fork keeps worker start-up at milliseconds; platforms without it
    (Windows, macOS default) fall back to ``spawn``, which
    :func:`attach_graph` also supports.  The resource tracker is started
    here, before the caller creates any child, so children inherit the
    parent's tracker instead of lazily starting their own.
    """
    if os.name == "posix":
        resource_tracker.ensure_running()
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class CSRSpec:
    """Everything a worker needs to re-materialise the shared graph."""

    offsets_name: str
    edges_name: str
    num_vertices: int
    num_edges: int
    graph_name: str
    meta: Tuple[Tuple[str, object], ...] = ()


class SharedCSR:
    """Parent-side owner of a graph's shared-memory blocks.

    Create one per graph (``SharedCSR.for_graph`` memoises on the graph
    instance so repeated parallel colorings export exactly once) and ship
    ``spec`` to workers.  Blocks are unlinked on :meth:`close` or when
    the owner is garbage-collected — mapped workers keep the memory alive
    until they drop their attachments (POSIX unlink semantics).
    """

    def __init__(self, graph: CSRGraph):
        self._offsets_shm = self._export(graph.offsets)
        self._edges_shm = self._export(graph.edges)
        self.spec = CSRSpec(
            offsets_name=self._offsets_shm.name,
            edges_name=self._edges_shm.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            graph_name=graph.name,
            meta=tuple(sorted(graph.meta.items())),
        )

    @classmethod
    def for_graph(cls, graph: CSRGraph) -> "SharedCSR":
        """The graph's shared export, created on first use and memoised.

        Lives in the graph's per-instance cache, so it is destroyed (and
        the blocks unlinked) together with the graph.
        """
        shared = graph._cache.get("parallel.shared_csr")
        if shared is None:
            shared = graph._cache["parallel.shared_csr"] = cls(graph)
        return shared

    @staticmethod
    def _export(arr: np.ndarray) -> shared_memory.SharedMemory:
        # SharedMemory refuses size 0; an empty array still gets one byte.
        shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        view = np.ndarray(arr.shape, dtype=np.int64, buffer=shm.buf)
        view[:] = arr
        return shm

    def close(self) -> None:
        """Release this process's mapping and destroy the blocks."""
        for shm in (self._offsets_shm, self._edges_shm):
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# Worker-side attachment cache: one mapping per (block name, process) —
# the value pairs the materialised view (a CSRGraph, with its memoised
# slot sources / dependency levels, or a bare ndarray) with the
# SharedMemory objects keeping its buffers alive.
_ATTACHED: Dict[str, Tuple[object, list]] = {}


def attach_graph(spec: CSRSpec) -> CSRGraph:
    """Map the shared blocks into a read-only :class:`CSRGraph` view.

    Idempotent per process: repeated calls with the same spec return the
    cached instance, so per-graph memos (slot sources, dependency-level
    schedules) survive across tasks within a worker.
    """
    cached = _ATTACHED.get(spec.offsets_name)
    if cached is not None:
        return cached[0]
    # Attaching re-registers each name with the tracker shared with the
    # owner: a set insert, so the owner's one unregister stays balanced.
    offsets_shm = shared_memory.SharedMemory(name=spec.offsets_name)
    edges_shm = shared_memory.SharedMemory(name=spec.edges_name)
    offsets = np.ndarray(spec.num_vertices + 1, dtype=np.int64, buffer=offsets_shm.buf)
    edges = np.ndarray(spec.num_edges, dtype=np.int64, buffer=edges_shm.buf)
    graph = CSRGraph(offsets=offsets, edges=edges, name=spec.graph_name)
    graph.meta.update(dict(spec.meta))
    # Keep the SharedMemory objects referenced for as long as the view
    # lives — dropping them would invalidate the buffers.
    _ATTACHED[spec.offsets_name] = (graph, [offsets_shm, edges_shm])
    return graph


def detach_all() -> int:
    """Drop every cached attachment this process holds; returns the count.

    Long-lived processes (mesh workers) attach graphs as jobs arrive;
    without an explicit release the mappings — and, on POSIX, the
    underlying pages of since-unlinked blocks — live until process exit.
    The mesh's ``shard.release`` op calls this between shard jobs.
    """
    released = len(_ATTACHED)
    for _graph, blocks in _ATTACHED.values():
        for shm in blocks:
            try:
                shm.close()
            except Exception:  # pragma: no cover - platform dependent
                pass
    _ATTACHED.clear()
    return released


class SharedI64Array:
    """Parent-side owner of one named, *writable* int64 shared array.

    The mesh's cross-worker shard protocol uses one of these as the
    colors vector: the router creates it, every worker attaches the same
    block (:func:`attach_array`) and writes its own shard's slots in
    place — results travel by memory, not by wire.  Safe because shard
    vertex sets are disjoint and repair-round ready sets are mutually
    non-adjacent; no two processes ever write the same slot in a phase.

    Same ownership rules as :class:`SharedCSR`: the creator unlinks on
    :meth:`close`, attachments only close their own mapping.
    """

    def __init__(self, size: int, *, fill: Optional[int] = None):
        self.size = int(size)
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, self.size * 8)
        )
        self.array = np.ndarray(self.size, dtype=np.int64, buffer=self._shm.buf)
        if fill is not None:
            self.array[:] = fill

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Release this process's mapping and destroy the block."""
        try:
            self.array = None
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "SharedI64Array":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def attach_array(name: str, size: int) -> np.ndarray:
    """Map a :class:`SharedI64Array` block into a writable ndarray view.

    Cached per process like :func:`attach_graph`, and released together
    with graph attachments by :func:`detach_all`.
    """
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[0]
    shm = shared_memory.SharedMemory(name=name)
    array = np.ndarray(int(size), dtype=np.int64, buffer=shm.buf)
    _ATTACHED[name] = (array, [shm])
    return array

