"""Asyncio socket front-end over :class:`~repro.service.service.ColoringService`.

The server listens on a **Unix domain socket** (local by construction —
no TCP surface) and speaks the length-prefixed protocol of
:mod:`repro.service.protocol`.  Each connection is one asyncio task;
many requests may be in flight per connection and across connections.
The event loop only frames bytes: decoding a request, the blocking
submit-and-wait against the in-process service, and encoding the reply
all run in the loop's thread pool.

Embedding options, outermost first:

* :func:`serve` — build a service, bind the socket, run until
  interrupted, then drain and shut down.  This is the CLI's
  ``repro serve`` verb.
* :class:`ServiceServer` with :meth:`ServiceServer.run_in_thread` — a
  running server on a background thread, for tests and applications
  that embed serving next to other work.
* :class:`ServiceServer` ``start``/``stop`` coroutines for callers with
  their own event loop.

:class:`FrameServer` holds the socket lifecycle both this server and
the mesh router (:class:`~repro.service.mesh.MeshServer`) share.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from .jobs import ServiceError
from .protocol import (
    Body,
    apply_outcome_to_wire,
    decode_body,
    decode_colors,
    decode_edge_pairs,
    encode_body,
    encode_colors,
    error_to_wire,
    is_binary,
    request_from_wire,
    result_to_wire,
    serve_frames,
    session_info_to_wire,
    shard_spec_from_wire,
)
from .service import ColoringService, ServiceConfig

__all__ = ["FrameServer", "ServiceServer", "serve"]


class FrameServer:
    """One Unix-socket listener answering frames with :meth:`answer`.

    Subclasses implement :meth:`dispatch` (one decoded request → a reply
    message, or a ready reply body) and :meth:`close_backend` (what an
    owning server drains on :meth:`stop`).
    """

    thread_name = "repro-frame-server"

    def __init__(self, socket_path: Union[str, Path], *, owns_backend: bool):
        self.socket_path = Path(socket_path)
        self._owns_backend = owns_backend
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def dispatch(
        self, message: Dict[str, Any], body: Body
    ) -> Union[Dict[str, Any], Body]:
        raise NotImplementedError

    def close_backend(self) -> None:
        raise NotImplementedError

    def answer(self, body: Body) -> Body:
        """The reply body for one request body; every failure becomes an
        error frame.  Runs on a pool thread, never on the event loop."""
        try:
            reply = self.dispatch(decode_body(body), body)
            if isinstance(reply, (bytes, bytearray)):
                return reply
            return encode_body(reply)
        except Exception as exc:
            return encode_body({"ok": False, "error": error_to_wire(exc)})

    async def _respond(self, body: bytes) -> Body:
        return await asyncio.get_running_loop().run_in_executor(
            None, self.answer, body
        )

    # ------------------------------------------------------------------
    # Async lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise ServiceError("server already started")
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_unix_server(
            lambda reader, writer: serve_frames(reader, writer, self._respond),
            path=str(self.socket_path),
        )
        self._started.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with contextlib.suppress(OSError):
            self.socket_path.unlink()
        if self._owns_backend:
            # Drain in a worker thread: closing blocks on in-flight jobs.
            await asyncio.get_running_loop().run_in_executor(
                None, self.close_backend
            )
        self._started.clear()

    async def run_until_stopped(
        self, ready: Optional[threading.Event] = None
    ) -> None:
        """Serve until :meth:`request_stop` (a signal, :meth:`shutdown`)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.start()
        if ready is not None:
            ready.set()
        try:
            await self._stop_event.wait()
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            # Swallowing a cancel leaves the task in a cancelling state
            # where every further await re-raises; undo it so the clean
            # stop (drain!) below can actually run its awaits.
            task = asyncio.current_task()
            if task is not None and hasattr(task, "uncancel"):
                task.uncancel()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Threaded lifecycle (tests, embedding)
    # ------------------------------------------------------------------
    def run_in_thread(self, *, timeout: float = 10.0) -> "FrameServer":
        """Start the server on a dedicated event-loop thread; returns self."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.run_until_stopped()),
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServiceError(
                f"server did not bind {self.socket_path} within {timeout}s"
            )
        return self

    def request_stop(self) -> None:
        """Ask a running server to stop (thread- and signal-safe)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    def shutdown(self, *, timeout: float = 30.0) -> None:
        """Stop a threaded server: unbind, optionally drain, join."""
        if self._thread is None:
            return
        self.request_stop()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ServiceError("server thread did not stop in time")
        self._thread = None


class ServiceServer(FrameServer):
    """One Unix-socket listener bound to one :class:`ColoringService`."""

    thread_name = "repro-service-server"

    def __init__(
        self,
        service: ColoringService,
        socket_path: Union[str, Path],
        *,
        owns_service: bool = False,
    ):
        super().__init__(socket_path, owns_backend=owns_service)
        self.service = service
        self.owns_service = owns_service
        """Whether :meth:`stop` also closes (drains) the service."""

    def close_backend(self) -> None:
        self.service.close()

    def dispatch(self, message: Dict[str, Any], body: Body) -> Dict[str, Any]:
        op = message.get("op")
        binary = is_binary(body)
        sessions = self.service.sessions
        session_id = str(message.get("session_id", ""))
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "status":
            return {"ok": True, "status": self.service.status()}
        if op == "color":
            # A RetryAfter shed propagates and becomes the error frame.
            job = self.service.submit(request_from_wire(message))
            result = job.result_or_raise()
            return {"ok": True, "result": result_to_wire(result, binary=binary)}
        if op == "session.register":
            # Reuse the color-envelope decoding (graph/dataset, algorithm,
            # backend, opts) — register's knobs are a superset of color's.
            request = request_from_wire(message)
            info = sessions.register(
                request.graph,
                dataset=request.dataset,
                algorithm=request.algorithm,
                backend=request.backend,
                client_id=request.client_id,
                timeout_s=request.timeout_s,
                **request.opts,
            )
            return {"ok": True, "session": session_info_to_wire(info, binary=binary)}
        if op == "session.apply":
            outcome = sessions.apply(
                session_id,
                additions=decode_edge_pairs(message.get("additions_i64", "")),
                removals=decode_edge_pairs(message.get("removals_i64", "")),
                add_vertices=int(message.get("add_vertices", 0)),
            )
            return {"ok": True, "apply": apply_outcome_to_wire(outcome, binary=binary)}
        if op == "session.verify":
            return {"ok": True, "verify": sessions.verify(session_id)}
        if op == "session.colors":
            colors = sessions.colors(session_id)
            return {"ok": True, "colors_i64": encode_colors(colors, binary=binary)}
        if op == "session.describe":
            return {"ok": True, "session": sessions.describe(session_id)}
        if op == "session.close":
            sessions.close(session_id)
            return {"ok": True, "closed": session_id}
        if op in _SHARD_OPS:
            return {"ok": True, "shard": _SHARD_OPS[op](message)}
        raise ServiceError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# Mesh shard ops: this worker's lane onto a shared-memory graph.  The
# graph and the colors vector both live in named shared-memory blocks
# owned by the mesh router; only block names, shard indices and (tiny)
# ready lists cross the socket.  Every op is idempotent — shard coloring
# and ready-set recoloring are pure functions of phase-start state
# writing disjoint slots — so the router may replay an op on another
# worker after a death without corrupting anything.
# ----------------------------------------------------------------------
def _attach(message: Dict[str, Any]):
    from ..parallel.shm import attach_array, attach_graph

    spec = shard_spec_from_wire(message["spec"])
    colors = attach_array(str(message["colors_name"]), spec.num_vertices)
    return attach_graph(spec), colors


def _shard_color(message: Dict[str, Any]) -> Dict[str, Any]:
    from ..parallel.coloring import color_shard

    graph, colors = _attach(message)
    shards = [int(s) for s in message.get("shards", [])]
    for shard in shards:
        vertices, shard_colors = color_shard(
            graph,
            shard,
            int(message["num_shards"]),
            strategy=str(message.get("strategy", "range")),
            prune_uncolored=bool(message.get("prune", False)),
        )
        colors[vertices] = shard_colors
    return {"shards": shards}


def _shard_repair(message: Dict[str, Any]) -> Dict[str, Any]:
    from ..parallel.coloring import recolor_first_free

    graph, colors = _attach(message)
    ready = decode_colors(message.get("ready_i64", ""))
    recolor_first_free(graph, colors, ready)
    return {"repaired": int(ready.size)}


def _shard_release(message: Dict[str, Any]) -> Dict[str, Any]:
    from ..parallel.shm import detach_all

    return {"released": detach_all()}


_SHARD_OPS = {
    "shard.color": _shard_color,
    "shard.repair": _shard_repair,
    "shard.release": _shard_release,
}


def run_until_signalled(
    server: FrameServer,
    ready: Optional[threading.Event],
    on_interrupt: Callable[[], None],
) -> None:
    """Serve on this thread until ``SIGINT``/``SIGTERM``, then stop cleanly.

    SIGTERM matters operationally: supervisors (systemd, CI) send it,
    and processes backgrounded by non-interactive shells inherit SIGINT
    ignored, so ctrl-C semantics alone are not enough.
    """

    async def main() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.add_signal_handler(sig, server.request_stop)
        await server.run_until_stopped(ready)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        on_interrupt()


def serve(
    socket_path: Union[str, Path],
    config: Optional[ServiceConfig] = None,
    *,
    service: Optional[ColoringService] = None,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run a coloring service on ``socket_path`` until interrupted.

    Builds a fresh :class:`ColoringService` from ``config`` (or adopts
    ``service``), binds the socket, and blocks.  ``SIGINT``/``SIGTERM``
    (or :meth:`ServiceServer.shutdown` from another thread) trigger the
    clean path: stop accepting, drain queued and in-flight jobs, close
    the service.  ``ready`` is set once the socket is bound (used by
    embedding tests to know when to connect).
    """
    owns = service is None
    svc = service if service is not None else ColoringService(config)
    server = ServiceServer(svc, socket_path, owns_service=owns)
    run_until_signalled(server, ready, svc.close if owns else lambda: None)
