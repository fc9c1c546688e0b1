"""Multi-worker service mesh: N coloring services behind one router.

The single-process service tops out at one GIL-bound dispatch loop no
matter how fast the kernels get.  The mesh is the scale-out story — the
software analog of GraVF-M's multi-FPGA partitioning: N full
:class:`~repro.service.service.ColoringService` workers run as separate
**processes** (each with its own Unix socket, admission queue, executor
pool, and result cache), fronted by a router that owns only placement.

Placement (:mod:`repro.service.placement`):

* jobs are **consistent-hashed** by canonical CSR fingerprint, so a
  resubmitted graph lands on the worker whose cache already holds it;
* when the home worker sheds (:class:`~repro.service.jobs.RetryAfter`
  from its bounded admission queue), the router **spills** the job to
  the least-loaded live worker instead of bouncing the shed upstream;
* a health thread pings every worker; a dead worker is removed from the
  ring (**re-hash**) and its key range redistributes to the survivors —
  in-flight jobs on the dead worker fail over transparently, resident
  sessions on it are lost (``SessionNotFound`` on next touch).

Cross-worker shard path: a graph past
``MeshConfig.shard_threshold_vertices`` is too large to color as one
unit, so the router runs the partition-parallel scheme of
:mod:`repro.parallel.coloring` *across worker processes*: the CSR arrays
and a writable colors vector are exported once into shared memory
(:mod:`repro.parallel.shm`), shard-coloring and boundary-repair commands
carry only block names and tiny ready lists over the sockets, and every
worker writes its disjoint slots in place.  The repair rounds are the
same smaller-ID-wins dependency rounds as the in-process backend —
each round's ready set is mutually non-adjacent, so splitting it across
owners is race-free — which keeps mesh colors **byte-identical** to
``repro.color(graph, "bitwise", backend="parallel", ...)``.

Execution inside each worker is the unmodified
:class:`~repro.service.execution.ExecutionEngine`: the mesh changes
where a job runs, never what runs.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..coloring.verify import UNCOLORED
from ..graph.csr import CSRGraph
from ..parallel.coloring import (
    DEFAULT_NUM_SHARDS,
    color_shard,
    find_cross_shard_conflicts,
    partitioner_for,
    recolor_first_free,
    split_ready,
)
from ..parallel.shm import SharedCSR, SharedI64Array, mp_context
from .client import Client
from .jobs import (
    JobRequest,
    JobResult,
    RetryAfter,
    ServiceClosed,
    ServiceError,
    SessionNotFound,
    build_request,
)
from .placement import MeshPlacement, placement_key
from .protocol import (
    Body,
    decode_body,
    encode_body,
    encode_colors,
    error_to_wire,
    is_binary,
    request_from_wire,
    request_to_wire,
    result_from_wire,
    result_to_wire,
    shard_spec_to_wire,
    wire_to_error,
)
from .server import FrameServer, run_until_signalled, serve
from .service import ServiceConfig

__all__ = ["ColoringMesh", "MeshConfig", "MeshServer", "serve_mesh"]

_SHARD_OPTS = {"prune_uncolored", "num_shards", "partition"}
"""Opts the shard path honors; anything else forwards to a worker."""


@dataclass
class MeshConfig:
    """Tunables of one mesh deployment."""

    workers: int = 2
    """Worker processes behind the router."""
    service: Optional[ServiceConfig] = None
    """Per-worker service template (registry/obs fields are reset per
    worker — each process collects its own).  None = defaults."""
    socket_dir: Optional[Union[str, Path]] = None
    """Directory for worker sockets; None = a fresh temp dir."""
    replicas: int = 64
    """Virtual nodes per worker on the consistent-hash ring."""
    health_interval_s: float = 0.5
    """Cadence of the worker health/load probe."""
    spawn_timeout_s: float = 20.0
    """How long to wait for a worker's socket to come up."""
    shard_threshold_vertices: Optional[int] = 50_000
    """Bitwise jobs with at least this many vertices take the
    cross-worker shard path; None disables it."""


def _worker_main(socket_path: str, config: ServiceConfig) -> None:
    """Entry point of one worker process: serve until SIGTERM, then die.

    ``serve`` installs the clean-drain signal handlers, so the router's
    ``terminate()`` drains queued and in-flight jobs before exit.  The
    trailing ``os._exit`` is defensive: a forked child inherits the
    parent's module state (persistent pools, attachment caches) and must
    never run teardown that belongs to the parent.
    """
    try:
        serve(socket_path, config)
    except Exception:  # pragma: no cover - worker crash path
        pass
    finally:
        os._exit(0)


def _preload_kernels() -> None:
    """Color one tiny graph in the router before forking workers.

    Lazy imports (NumPy's ``np.unique`` pulls in ``numpy.ma``) and the
    native-library load then happen once per router process, and every
    forked worker inherits them instead of paying them on its first job.
    """
    from .. import color
    from ..graph import erdos_renyi

    color(erdos_renyi(64, 0.1, seed=0))


class _WorkerLink:
    """Connection pool onto one worker's socket.

    The plain :class:`~repro.service.client.Client` serializes round
    trips under a lock; the router needs concurrent in-flight forwards
    per worker, so the link keeps a LIFO free-list of clients and opens
    another when all are busy.  Transport failures close the failing
    connection and propagate — the mesh treats them as worker death.
    """

    def __init__(self, socket_path: Union[str, Path]):
        self.socket_path = Path(socket_path)
        self._idle: deque = deque()
        self._lock = threading.Lock()
        self._closed = False

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return decode_body(self.exchange(encode_body(message)))

    def exchange(self, body: Body) -> Body:
        with self._lock:
            if self._closed:
                raise ServiceError(f"link to {self.socket_path} is closed")
            client = self._idle.pop() if self._idle else None
        if client is None:
            client = Client(socket_path=self.socket_path)
        try:
            reply = client.exchange(body)
        except BaseException:
            client.close()
            raise
        with self._lock:
            if self._closed:
                client.close()
            else:
                self._idle.append(client)
        return reply

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = list(self._idle), deque()
        for client in idle:
            client.close()


class _Worker:
    """One spawned worker: its process, socket, and link."""

    def __init__(self, name: str, process, socket_path: Path):
        self.name = name
        self.process = process
        self.socket_path = socket_path
        self.link = _WorkerLink(socket_path)


class ColoringMesh:
    """N worker processes + consistent-hash routing, one color() surface."""

    def __init__(self, config: Optional[MeshConfig] = None):
        self.config = config or MeshConfig()
        if self.config.workers < 1:
            raise ValueError(
                f"mesh needs >= 1 worker, got {self.config.workers}"
            )
        if self.config.socket_dir is not None:
            self._socket_dir = Path(self.config.socket_dir)
            self._socket_dir.mkdir(parents=True, exist_ok=True)
            self._owns_socket_dir = False
        else:
            self._socket_dir = Path(tempfile.mkdtemp(prefix="repro-mesh-"))
            self._owns_socket_dir = True
        self._workers: Dict[str, _Worker] = {}
        self._session_homes: Dict[str, str] = {}
        self._closed = False
        self._started_at = time.monotonic()
        names = [f"w{i}" for i in range(self.config.workers)]
        _preload_kernels()
        # Fork every worker first, then wait: they boot concurrently.
        for name in names:
            self._workers[name] = self._spawn(name)
        try:
            for worker in self._workers.values():
                self._await_ready(worker)
        except BaseException:
            for worker in self._workers.values():
                worker.process.kill()
            raise
        self.placement = MeshPlacement(names, replicas=self.config.replicas)
        self._stop = threading.Event()
        self._health = threading.Thread(
            target=self._health_loop, name="repro-mesh-health", daemon=True
        )
        self._health.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _worker_config(self) -> ServiceConfig:
        template = self.config.service or ServiceConfig()
        # Each worker process collects its own observability and must
        # not share (or double-export) the router's registry.
        return replace(template, registry=None, obs_path=None)

    def _spawn(self, name: str) -> _Worker:
        socket_path = self._socket_dir / f"{name}.sock"
        process = mp_context().Process(
            target=_worker_main,
            args=(str(socket_path), self._worker_config()),
            name=f"repro-mesh-{name}",
            daemon=True,
        )
        process.start()
        return _Worker(name, process, socket_path)

    def _await_ready(self, worker: _Worker) -> None:
        """Block until ``worker`` answers a ping."""
        deadline = time.monotonic() + self.config.spawn_timeout_s
        while time.monotonic() < deadline:
            if worker.socket_path.exists():
                try:
                    if worker.link.call({"op": "ping"}).get("pong"):
                        return
                except Exception:
                    pass
            if not worker.process.is_alive():
                raise ServiceError(
                    f"mesh worker {worker.name} died during startup"
                )
            time.sleep(0.005)
        raise ServiceError(
            f"mesh worker {worker.name} did not bind {worker.socket_path} "
            f"within {self.config.spawn_timeout_s}s"
        )

    def _on_worker_death(self, name: str) -> None:
        if self.placement.mark_dead(name):
            worker = self._workers.get(name)
            if worker is not None:
                worker.link.close()
                with contextlib.suppress(Exception):
                    worker.process.join(timeout=0)
                with contextlib.suppress(OSError):
                    worker.socket_path.unlink()
            # Sessions resident on the dead worker are gone; forget the
            # routes so the next touch raises SessionNotFound directly.
            lost = [
                sid for sid, home in self._session_homes.items() if home == name
            ]
            for sid in lost:
                self._session_homes.pop(sid, None)

    def _health_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval_s):
            self.check_workers()

    def check_workers(self) -> None:
        """One health/load sweep (the health thread's body, callable
        directly from tests and the CLI)."""
        for name in self.placement.live_workers:
            worker = self._workers.get(name)
            if worker is None:
                continue
            if not worker.process.is_alive():
                self._on_worker_death(name)
                continue
            try:
                response = worker.link.call({"op": "status"})
            except Exception:
                self._on_worker_death(name)
                continue
            if response.get("ok"):
                snapshot = response["status"]
                self.placement.update_load(
                    name,
                    snapshot.get("queue_depth", 0),
                    snapshot.get("inflight", 0),
                )

    # ------------------------------------------------------------------
    # Forwarding: bodies pass through undecoded
    # ------------------------------------------------------------------
    @staticmethod
    def _is_shed(reply: Body) -> bool:
        response = decode_body(reply)
        return (
            not response.get("ok")
            and response.get("error", {}).get("code") == "retry_after"
        )

    def _call_worker(self, name: str, body: Body) -> Optional[Body]:
        """One raw round trip; None (after marking dead) on transport failure."""
        worker = self._workers.get(name)
        if worker is None:
            return None
        try:
            return worker.link.exchange(body)
        except Exception:
            self._on_worker_death(name)
            return None

    def forward(self, body: Body, key: str) -> Body:
        """Route one request body by ``key``: home → spill → relay.

        The home worker is the consistent-hash owner.  A shed from the
        home spills once to the least-loaded other live worker; a second
        shed is relayed to the caller (whose retry hint still applies).
        Transport failures re-hash and retry until a worker answers or
        none are left.  Request and reply bytes pass through unchanged;
        only a reply's header is read, to spot a shed.
        """
        return self._forward_traced(body, key)[0]

    def _forward_traced(self, body: Body, key: str):
        """:meth:`forward` plus the name of the worker that answered."""
        if self._closed:
            raise ServiceClosed("mesh is shutting down")
        while True:
            try:
                home = self.placement.home(key)
            except LookupError:
                raise ServiceClosed("no live mesh workers") from None
            reply = self._call_worker(home, body)
            if reply is None:
                continue  # home died; the ring has re-hashed
            if self._is_shed(reply):
                target = self.placement.spill_target(key, exclude=[home])
                if target is not None and target != home:
                    spilled = self._call_worker(target, body)
                    if spilled is not None:
                        return spilled, target
            return reply, home

    @staticmethod
    def _header_key(message: Dict[str, Any]) -> str:
        """The placement key of one color/register message.

        A binary frame names its graph's fingerprint in the header, so
        the graph stays undecoded here (the worker verifies the name).
        Without one (a JSON body) the graph is decoded and fingerprinted.
        """
        named = message.get("fingerprint")
        if message.get("graph") is not None and isinstance(named, str):
            return named
        request = request_from_wire(message)
        return placement_key(request, request.graph)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def color(
        self,
        graph: Optional[CSRGraph] = None,
        *,
        dataset: Optional[str] = None,
        algorithm: str = "bitwise",
        backend: Optional[str] = None,
        engine: Optional[str] = None,
        priority: int = 0,
        client_id: str = "mesh",
        timeout_s: Optional[float] = None,
        retries: int = 0,
        **opts: Any,
    ) -> JobResult:
        """Submit one job to the mesh and wait (mirrors ``Client.color``).

        ``retries`` reacts to a shed that survived the spill: sleep the
        hint and resubmit, same contract as the single-service client.
        """
        request = build_request(
            graph=graph,
            dataset=dataset,
            algorithm=algorithm,
            backend=backend,
            engine=engine,
            opts=opts,
            priority=priority,
            client_id=client_id,
            timeout_s=timeout_s,
        )
        if self._wants_shard_path(request):
            return self._color_sharded(request)
        body = encode_body(request_to_wire(request, binary=True))
        key = placement_key(request, request.graph)
        attempts = max(0, retries) + 1
        for attempt in range(attempts):
            response = decode_body(self.forward(body, key))
            if response.get("ok"):
                return result_from_wire(response["result"])
            error = wire_to_error(response.get("error", {}))
            if isinstance(error, RetryAfter) and attempt + 1 < attempts:
                time.sleep(error.retry_after_s)
                continue
            raise error

    def route_color(self, message: Dict[str, Any], body: Body) -> Body:
        """Answer one client ``op="color"`` frame (decoded ``message``,
        raw ``body``): the shard path, or ``body`` forwarded unchanged."""
        request = self._shard_request(message)
        if request is not None:
            result = result_to_wire(
                self._color_sharded(request), binary=is_binary(body)
            )
            return encode_body({"ok": True, "result": result})
        return self.forward(body, self._header_key(message))

    # ------------------------------------------------------------------
    # Sessions (forwarded whole to the session's home worker)
    # ------------------------------------------------------------------
    def forward_session(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Route one session-lane message; returns the decoded reply."""
        try:
            return decode_body(self.route_session(message, encode_body(message)))
        except ServiceError as exc:
            return {"ok": False, "error": error_to_wire(exc)}

    def route_session(self, message: Dict[str, Any], body: Body) -> Body:
        """Answer one ``session.*`` frame: ``body`` goes unchanged to the
        session's home worker (for a register, the graph's hash home)."""
        op = str(message.get("op", ""))
        if op == "session.register":
            reply, worker = self._forward_traced(body, self._header_key(message))
            response = decode_body(reply)
            if response.get("ok"):
                # Remember the worker that actually answered (spill may
                # have moved it off the hash home) so later ops follow.
                self._session_homes[response["session"]["session_id"]] = worker
            return reply
        session_id = str(message.get("session_id", ""))
        home = self._session_homes.get(session_id)
        if home is None or home not in self.placement.live_workers:
            raise SessionNotFound(
                f"unknown session {session_id!r} (no live owner in the "
                "mesh — its worker may have died)"
            )
        reply = self._call_worker(home, body)
        if reply is None:
            raise SessionNotFound(f"session {session_id!r} lost: its worker died")
        if op == "session.close" and decode_body(reply).get("ok"):
            self._session_homes.pop(session_id, None)
        return reply

    # ------------------------------------------------------------------
    # Cross-worker shard path
    # ------------------------------------------------------------------
    def _shard_request(self, message: Dict[str, Any]) -> Optional[JobRequest]:
        """The decoded request of a frame that takes the shard path, else
        None.  The graph is decoded only when the header's vertex count
        reaches the threshold."""
        threshold = self.config.shard_threshold_vertices
        graph = message.get("graph")
        if threshold is None or not isinstance(graph, dict):
            return None
        try:
            if int(graph.get("n", 0)) < threshold:
                return None
        except (TypeError, ValueError, OverflowError):
            return None  # malformed: the worker's decoder reports it
        request = request_from_wire(message)
        return request if self._wants_shard_path(request) else None

    def _wants_shard_path(self, request: JobRequest) -> bool:
        threshold = self.config.shard_threshold_vertices
        return (
            threshold is not None
            and request.graph is not None
            and request.graph.num_vertices >= threshold
            and request.algorithm == "bitwise"
            and request.backend in (None, "parallel")
            and request.engine is None
            and set(request.opts) <= _SHARD_OPTS
        )

    def _color_sharded(self, request) -> JobResult:
        """Partition-parallel coloring with worker processes as engines.

        Byte-identical to
        ``parallel_bitwise_coloring(graph, num_shards=…, partition=…,
        prune_uncolored=…)`` — same shard subgraphs, same conflict rule,
        same dependency rounds — because distribution only moves *who*
        executes each disjoint-slot write, never the phase-start state
        it reads.
        """
        t0 = time.monotonic()
        graph = request.graph
        num_shards = int(request.opts.get("num_shards") or DEFAULT_NUM_SHARDS)
        strategy = str(request.opts.get("partition", "range"))
        prune = bool(request.opts.get("prune_uncolored", False))
        plan = partitioner_for(strategy)(graph, num_shards)
        shared = SharedCSR.for_graph(graph)
        spec_wire = shard_spec_to_wire(shared.spec)
        workers = self.placement.live_workers
        touched = set(workers)
        with SharedI64Array(graph.num_vertices, fill=0) as colors_shm:
            colors = colors_shm.array
            base = {"spec": spec_wire, "colors_name": colors_shm.name}

            # Phase 1 — speculative shard coloring, shards round-robined
            # over the live workers.
            shard_worker: Dict[int, str] = {}
            groups: Dict[str, List[int]] = {}
            for shard in range(num_shards):
                owner = workers[shard % len(workers)] if workers else ""
                shard_worker[shard] = owner
                groups.setdefault(owner, []).append(shard)
            self._scatter(
                [
                    (
                        owner,
                        {
                            **base,
                            "op": "shard.color",
                            "shards": shards,
                            "num_shards": num_shards,
                            "strategy": strategy,
                            "prune": prune,
                        },
                        lambda shards=shards: self._local_shard_color(
                            graph, colors, shards, num_shards, strategy, prune
                        ),
                    )
                    for owner, shards in groups.items()
                ]
            )

            # Phase 2 — smaller-ID-wins boundary repair, round by round;
            # each worker recolors the ready vertices of its own shards.
            conflicted = find_cross_shard_conflicts(graph, plan, colors)
            rounds = 0
            if conflicted.size:
                pending = np.zeros(graph.num_vertices, dtype=bool)
                pending[conflicted] = True
                colors[conflicted] = UNCOLORED
                todo = conflicted
                while todo.size:
                    rounds += 1
                    ready, todo = split_ready(graph, todo, pending)
                    by_owner: Dict[str, List[np.ndarray]] = {}
                    owners = plan.owner[ready]
                    for shard in np.unique(owners):
                        owner = shard_worker.get(int(shard), "")
                        by_owner.setdefault(owner, []).append(
                            ready[owners == shard]
                        )
                    self._scatter(
                        [
                            (
                                owner,
                                {
                                    **base,
                                    "op": "shard.repair",
                                    "ready_i64": encode_colors(
                                        np.concatenate(subset), binary=True
                                    ),
                                },
                                lambda subset=subset: recolor_first_free(
                                    graph, colors, np.concatenate(subset)
                                ),
                            )
                            for owner, subset in by_owner.items()
                        ]
                    )
                    pending[ready] = False
            final = colors.copy()
        for name in touched:
            worker = self._workers.get(name)
            if worker is not None and name in self.placement.live_workers:
                with contextlib.suppress(Exception):
                    worker.link.call({"op": "shard.release"})
        used = np.unique(final[final != UNCOLORED])
        total_s = time.monotonic() - t0
        return JobResult(
            colors=final,
            n_colors=int(used.size),
            algorithm="bitwise",
            backend="parallel",
            engine=None,
            route=(
                f"mesh-shard ({num_shards} shards x "
                f"{max(1, len(workers))} workers, {rounds} repair rounds)"
            ),
            cache_hit=False,
            batched=0,
            attempts=1,
            timings={"queue": 0.0, "execute": total_s, "total": total_s},
        )

    def _scatter(self, ops) -> None:
        """Run (worker, message, local_fallback) ops concurrently.

        Shard ops are idempotent, so a transport failure re-routes the
        op to another live worker; with none left it runs in the router
        itself — the mesh always completes a shard job it accepted.
        """
        if not ops:
            return
        errors: List[BaseException] = []

        def run(op) -> None:
            name, message, local = op
            body = encode_body(message)
            tried = set()
            while True:
                if name and name not in tried:
                    tried.add(name)
                    reply = self._call_worker(name, body)
                    if reply is not None:
                        response = decode_body(reply)
                        if not response.get("ok"):
                            errors.append(
                                wire_to_error(response.get("error", {}))
                            )
                        return
                fallback = next(
                    (
                        w
                        for w in self.placement.live_workers
                        if w not in tried
                    ),
                    None,
                )
                if fallback is None:
                    try:
                        local()
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)
                    return
                name = fallback

        if len(ops) == 1:
            run(ops[0])
        else:
            threads = [
                threading.Thread(target=run, args=(op,), daemon=True)
                for op in ops
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if errors:
            raise errors[0]

    def _local_shard_color(
        self, graph, colors, shards, num_shards, strategy, prune
    ) -> None:
        for shard in shards:
            vertices, shard_colors = color_shard(
                graph,
                int(shard),
                num_shards,
                strategy=strategy,
                prune_uncolored=prune,
            )
            colors[vertices] = shard_colors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Aggregated mesh snapshot (the router's ``status`` op)."""
        placement = self.placement.stats()
        workers: Dict[str, Any] = {}
        queue_depth = 0
        inflight = 0
        for name in placement["live"]:
            worker = self._workers.get(name)
            if worker is None:
                continue
            try:
                response = worker.link.call({"op": "status"})
            except Exception:
                workers[name] = {"status": "unreachable"}
                continue
            if response.get("ok"):
                snapshot = response["status"]
                workers[name] = snapshot
                queue_depth += snapshot.get("queue_depth", 0)
                inflight += snapshot.get("inflight", 0)
            else:  # pragma: no cover - worker-side status failure
                workers[name] = {"status": "error"}
        for name in placement["dead"]:
            workers[name] = {"status": "dead"}
        return {
            "status": "ok" if placement["live"] else "degraded",
            "mode": "mesh",
            "uptime_s": time.monotonic() - self._started_at,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "placement": placement,
            "workers": workers,
            "sessions": {"routed": len(self._session_homes)},
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, *, timeout: float = 30.0) -> None:
        """Stop the mesh: drain every worker (SIGTERM), then reap."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._health.join(timeout=5)
        for worker in self._workers.values():
            worker.link.close()
            if worker.process.is_alive():
                worker.process.terminate()  # SIGTERM → clean drain
        deadline = time.monotonic() + timeout
        for worker in self._workers.values():
            worker.process.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
            if worker.process.is_alive():  # pragma: no cover - hung worker
                worker.process.kill()
                worker.process.join(timeout=5)
            with contextlib.suppress(OSError):
                worker.socket_path.unlink()
        if self._owns_socket_dir:
            with contextlib.suppress(OSError):
                self._socket_dir.rmdir()

    def __enter__(self) -> "ColoringMesh":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MeshServer(FrameServer):
    """Unix-socket front-end over a :class:`ColoringMesh` router.

    Speaks the same wire protocol as the single-service server — the
    existing ``submit``/``submit-deltas`` CLI verbs and
    :func:`~repro.service.client.connect` work unchanged against a mesh
    socket — plus the ``mesh.status`` op behind the ``mesh-status``
    verb.  Color and session frames are forwarded as received.
    """

    thread_name = "repro-mesh-server"

    def __init__(
        self,
        mesh: ColoringMesh,
        socket_path: Union[str, Path],
        *,
        owns_mesh: bool = False,
    ):
        super().__init__(socket_path, owns_backend=owns_mesh)
        self.mesh = mesh
        self.owns_mesh = owns_mesh

    def close_backend(self) -> None:
        self.mesh.close()

    def shutdown(self, *, timeout: float = 60.0) -> None:
        super().shutdown(timeout=timeout)

    def dispatch(
        self, message: Dict[str, Any], body: Body
    ) -> Union[Dict[str, Any], Body]:
        op = str(message.get("op", ""))
        if op == "ping":
            return {"ok": True, "pong": True}
        if op in ("status", "mesh.status"):
            return {"ok": True, "status": self.mesh.status()}
        if op == "color":
            return self.mesh.route_color(message, body)
        if op.startswith("session."):
            return self.mesh.route_session(message, body)
        raise ServiceError(f"unknown op {op!r}")


def serve_mesh(
    socket_path: Union[str, Path],
    config: Optional[MeshConfig] = None,
    *,
    mesh: Optional[ColoringMesh] = None,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run a mesh router on ``socket_path`` until interrupted.

    The mesh analog of :func:`repro.service.server.serve`: builds the
    workers (or adopts ``mesh``), binds the router socket, and blocks.
    ``SIGINT``/``SIGTERM`` run the clean path — unbind, then drain every
    worker (their own SIGTERM handlers finish queued and in-flight jobs)
    before exit.
    """
    owns = mesh is None
    router = mesh if mesh is not None else ColoringMesh(config)
    server = MeshServer(router, socket_path, owns_mesh=owns)
    run_until_signalled(server, ready, router.close if owns else lambda: None)
