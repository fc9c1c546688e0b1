"""Wire protocol of the coloring service's socket front-end.

Every message is a **4-byte big-endian length prefix followed by one
body**, in both directions.  A body has one of two forms:

* **Binary frame** (what this package's clients send): the magic
  ``b"RPB"`` plus a format-version byte (``1``), a 4-byte big-endian
  header length, a UTF-8 JSON header, zero padding to an 8-byte
  boundary, then the raw little-endian ``int64`` payloads back to back.
  In the header an array field is a reference ``{"$i64": [offset,
  nbytes]}`` into that payload section; offsets count from its start,
  both numbers are multiples of 8 and no two references overlap.  The
  payload section starts 8-byte aligned, so a decoded array is a
  zero-copy ``np.frombuffer`` view that native kernels take directly,
  and a decoded graph fingerprints identically to the original (the
  cache contract survives the wire).
* **JSON body** (the fallback for hand-written clients): one UTF-8 JSON
  object, so the body starts with ``{``, with each array field a base64
  string of the same little-endian ``int64`` bytes.  A server still
  accepts it and answers in kind: a JSON request gets a JSON reply; a
  binary request gets its reply arrays as payloads.  There is no
  handshake — the first body byte tells the forms apart.

Either way the decoded message is one dict whose array fields are
base64 strings or ``ndarray`` views; :func:`_decode_i64` takes both, so
every message shape has exactly one to/from pair below.  Their
``binary=False`` defaults render JSON-safe dicts, unchanged from the
all-JSON protocol.

Request shapes (``op`` selects):

``{"op": "color", "algorithm": ..., "backend": ..., "engine": ...,
  "opts": {...}, "priority": ..., "client_id": ..., "timeout_s": ...,
  "graph": {"n": ..., "offsets": <array>, "edges": <array>, "name": ...},
  "fingerprint": ...}`` — or ``"dataset": "GD"`` instead of ``"graph"``.
Binary requests carry the graph's :meth:`~repro.graph.csr.CSRGraph.fingerprint`
in the header: a mesh router places the job on it without decoding the
graph, and the server that decodes the graph recomputes it and refuses
a mismatch with the ``fingerprint_mismatch`` error.  A request without
one (every JSON body) is fingerprinted after decoding, as before.
``{"op": "status"}`` — the ``/healthz`` snapshot.  ``{"op": "ping"}`` —
liveness.

Session lane (dynamic graphs; see :mod:`repro.service.sessions`):
``{"op": "session.register", ...color envelope...}`` opens a session
and returns the initial coloring; ``{"op": "session.apply",
"session_id": ..., "additions_i64": ..., "removals_i64": ...,
"add_vertices": ...}`` ships one delta batch (flattened ``(u, v)``
pairs) and returns the **sparse diff** (changed vertex IDs + new colors
only); ``session.verify``, ``session.colors``, ``session.describe`` and
``session.close`` complete the lifecycle.

Responses are ``{"ok": true, ...payload...}`` or ``{"ok": false,
"error": {"code": ..., "type": ..., "message": ...,
"retry_after_s": ...}}``; the client rehydrates the stable ``code``
into the matching :class:`~repro.service.jobs.ServiceError` subclass so
socket callers and in-process callers see identical typed exceptions.

Framing lives here too: :func:`write_frame`/:func:`read_frame` for
blocking sockets, :func:`write_frame_async`/:func:`read_frame_async`
for asyncio streams, and :func:`serve_frames`, the per-connection loop
of both socket servers.  Anything malformed a peer can send raises
:class:`~repro.service.jobs.ServiceError`.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import json
import socket
import struct
from typing import Any, Awaitable, Callable, Dict, List, Optional, Union

import numpy as np

from ..graph.csr import CSRGraph, GraphError
from .jobs import (
    FingerprintMismatch,
    JobFailed,
    JobRequest,
    JobResult,
    JobTimeout,
    RetryAfter,
    ServiceClosed,
    ServiceError,
    SessionError,
    SessionNotFound,
    build_request,
)

__all__ = [
    "BINARY_MAGIC",
    "MAX_FRAME_BYTES",
    "apply_outcome_from_wire",
    "apply_outcome_to_wire",
    "decode_body",
    "decode_colors",
    "decode_edge_pairs",
    "decode_graph",
    "encode_body",
    "encode_colors",
    "encode_edge_pairs",
    "encode_graph",
    "error_to_wire",
    "is_binary",
    "read_frame",
    "read_frame_async",
    "request_from_wire",
    "request_to_wire",
    "result_from_wire",
    "result_to_wire",
    "serve_frames",
    "session_info_from_wire",
    "session_info_to_wire",
    "shard_spec_from_wire",
    "shard_spec_to_wire",
    "wire_to_error",
    "write_frame",
    "write_frame_async",
]

_LEN = struct.Struct(">I")

MAX_FRAME_BYTES = 256 << 20
"""Refuse frames past 256 MiB — a corrupt length prefix must not turn
into an allocation bomb."""

BINARY_MAGIC = b"RPB\x01"
"""First bytes of a binary body: tag plus format-version byte."""

_PREAMBLE = len(BINARY_MAGIC) + _LEN.size
_REF = "$i64"
"""Header key of a payload reference (reserved in binary headers)."""

Body = Union[bytes, bytearray]


# ----------------------------------------------------------------------
# Bodies: one message <-> one binary frame or JSON object
# ----------------------------------------------------------------------
def is_binary(body: Body) -> bool:
    """True unless ``body`` is a JSON body (the first byte is ``{``)."""
    return body[:1] != b"{"


def encode_body(message: Dict[str, Any]) -> bytes:
    """Render one message: a binary frame when it holds arrays, else JSON.

    ``ndarray`` values become payloads (in the order the sorted-key JSON
    encoder meets them) and references in the header.  A message whose
    array fields are base64 strings has no payloads and is sent as JSON.
    """
    payloads: List[np.ndarray] = []
    size = 0

    def reference(obj: Any) -> Dict[str, List[int]]:
        nonlocal size
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"{type(obj).__name__} is not wire-serializable")
        arr = np.ascontiguousarray(obj, dtype="<i8")
        payloads.append(arr)
        size += arr.nbytes
        return {_REF: [size - arr.nbytes, arr.nbytes]}

    header = json.dumps(message, sort_keys=True, default=reference).encode()
    if not payloads:
        return header
    pad = bytes(-(_PREAMBLE + len(header)) % 8)
    return b"".join(
        [BINARY_MAGIC, _LEN.pack(len(header)), header, pad]
        + [arr.data for arr in payloads]
    )


def decode_body(body: Body) -> Dict[str, Any]:
    """Inverse of :func:`encode_body` for either body form.

    Payload references become ``<i8`` views into ``body`` — no copy;
    writable exactly when ``body`` is a ``bytearray``.  Raises
    :class:`ServiceError` on anything malformed.
    """
    if not is_binary(body):
        try:
            message = json.loads(body)
        except (ValueError, RecursionError) as exc:
            raise ServiceError(f"malformed JSON body: {exc}") from None
    elif body[: len(BINARY_MAGIC)] == BINARY_MAGIC:
        message = _decode_binary(body)
    else:
        raise ServiceError(
            f"unknown body format {bytes(body[:len(BINARY_MAGIC)])!r} "
            f"(expected a JSON object or {BINARY_MAGIC!r})"
        )
    if not isinstance(message, dict):
        raise ServiceError("a frame must hold one JSON object")
    return message


def _decode_binary(body: Body) -> Any:
    if len(body) < _PREAMBLE:
        raise ServiceError("binary frame truncated before its header")
    (header_len,) = _LEN.unpack_from(body, len(BINARY_MAGIC))
    header_end = _PREAMBLE + header_len
    if header_end > len(body):
        raise ServiceError(
            f"binary header of {header_len} bytes runs past the "
            f"{len(body)}-byte body"
        )
    data_start = header_end + (-header_end % 8)
    data_len = len(body) - data_start
    spans: List[tuple] = []

    def resolve(obj: Dict[str, Any]) -> Any:
        if len(obj) != 1 or _REF not in obj:
            return obj
        ref = obj[_REF]
        if not (
            isinstance(ref, list)
            and len(ref) == 2
            and all(type(v) is int for v in ref)
        ):
            raise ServiceError(f"malformed payload reference {ref!r}")
        offset, nbytes = ref
        if offset < 0 or nbytes < 0 or offset % 8 or nbytes % 8:
            raise ServiceError(
                f"payload reference {ref} is not a run of whole int64s"
            )
        if offset + nbytes > data_len:
            raise ServiceError(
                f"payload reference {ref} runs past the {max(data_len, 0)}-byte "
                "payload section"
            )
        spans.append((offset, nbytes))
        return np.frombuffer(
            body, dtype="<i8", count=nbytes // 8, offset=data_start + offset
        )

    try:
        message = json.loads(body[_PREAMBLE:header_end], object_hook=resolve)
    except (ValueError, RecursionError) as exc:
        raise ServiceError(f"malformed binary header: {exc}") from None
    spans.sort()
    for (offset, nbytes), (following, _) in zip(spans, spans[1:]):
        if following < offset + nbytes:
            raise ServiceError("payload references overlap")
    return message


# ----------------------------------------------------------------------
# Framing: one blocking pair, one asyncio pair, one server loop
# ----------------------------------------------------------------------
def _checked_length(prefix: bytes) -> int:
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(f"frame of {length} bytes exceeds the protocol cap")
    return length


def _as_body(frame: Union[Dict[str, Any], Body]) -> Body:
    return frame if isinstance(frame, (bytes, bytearray)) else encode_body(frame)


def write_frame(
    sock: socket.socket, frame: Union[Dict[str, Any], Body]
) -> None:
    """Send one frame: a message (see :func:`encode_body`) or a ready body."""
    body = _as_body(frame)
    sock.sendall(_LEN.pack(len(body)) + body)


def read_frame(sock: socket.socket, *, raw: bool = False):
    """The next frame's decoded message (its body when ``raw``), or None
    on clean EOF before any byte."""
    prefix = _read_exact(sock, _LEN.size, eof_ok=True)
    if prefix is None:
        return None
    body = _read_exact(sock, _checked_length(bytes(prefix)), eof_ok=False)
    return body if raw else decode_body(body)


def _read_exact(
    sock: socket.socket, n: int, *, eof_ok: bool
) -> Optional[bytearray]:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        chunk = sock.recv_into(view[got:])
        if not chunk:
            if eof_ok and got == 0:
                return None
            raise ServiceError(f"connection closed mid-frame ({got}/{n} bytes)")
        got += chunk
    return buf


async def write_frame_async(
    writer: asyncio.StreamWriter, frame: Union[Dict[str, Any], Body]
) -> None:
    body = _as_body(frame)
    writer.writelines([_LEN.pack(len(body)), body])
    await writer.drain()


async def read_frame_async(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next frame's body, undecoded (servers decode off the loop), or
    None on clean EOF before any byte."""
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServiceError("connection closed mid-frame") from None
    length = _checked_length(prefix)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ServiceError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from None


async def serve_frames(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    respond: Callable[[bytes], Awaitable[Body]],
) -> None:
    """Answer one connection's frames until the peer hangs up.

    The loop moves bytes only: ``respond`` maps a request body to a
    reply body.  A bad length prefix gets one error frame, then the
    connection is dropped.  A peer still connected when the event loop
    tears down (a mesh router's pooled link at shutdown) gets its
    handler cancelled, possibly inside ``wait_closed``.  The handler
    ends normally instead of re-raising: the stream server's done
    callback calls ``task.exception()``, which raises for a cancelled
    task, and the loop would log that as a shutdown traceback.
    """
    try:
        while True:
            try:
                body = await read_frame_async(reader)
            except ServiceError as exc:
                await write_frame_async(
                    writer, {"ok": False, "error": error_to_wire(exc)}
                )
                break
            if body is None:
                break
            await write_frame_async(writer, await respond(body))
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        with contextlib.suppress(Exception, asyncio.CancelledError):
            await writer.wait_closed()


# ----------------------------------------------------------------------
# Array / graph codec
# ----------------------------------------------------------------------
def _encode_i64(arr, binary: bool = False) -> Union[str, np.ndarray]:
    """One ``int64`` array field: base64 text, or (``binary``) the array,
    which :func:`encode_body` turns into a payload reference."""
    buf = np.ascontiguousarray(arr, dtype="<i8")
    if binary:
        return buf
    return base64.b64encode(buf).decode("ascii")


def _decode_i64(value: Any, *, writable: bool = True) -> np.ndarray:
    """Inverse of :func:`_encode_i64` for both field forms.

    ``writable=False`` lets a payload view through without a copy (the
    graph decoder: CSR arrays are read-only anyway).
    """
    if isinstance(value, np.ndarray):
        arr = value
    elif isinstance(value, str):
        try:
            raw = base64.b64decode(value)
        except ValueError as exc:
            raise ServiceError(f"malformed base64 array: {exc}") from None
        if len(raw) % 8:
            raise ServiceError(
                f"base64 array of {len(raw)} bytes is not whole int64s"
            )
        arr = np.frombuffer(raw, dtype="<i8")
    else:
        raise ServiceError(
            "an array field must be base64 text or a payload reference, "
            f"not {type(value).__name__}"
        )
    arr = arr.astype(np.int64, copy=False)
    if writable and not arr.flags.writeable:
        arr = arr.copy()
    return arr


def encode_graph(graph: CSRGraph, *, binary: bool = False) -> Dict[str, Any]:
    """Wire rendering of a CSR graph (structure + name only)."""
    return {
        "n": int(graph.num_vertices),
        "offsets": _encode_i64(graph.offsets, binary),
        "edges": _encode_i64(graph.edges, binary),
        "name": graph.name,
    }


def decode_graph(data: Any) -> CSRGraph:
    if not isinstance(data, dict):
        raise ServiceError("graph must be a JSON object")
    try:
        n = int(data["n"])
        offsets = _decode_i64(data["offsets"], writable=False)
        edges = _decode_i64(data["edges"], writable=False)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ServiceError(f"malformed graph: {exc!r}") from None
    if offsets.size != n + 1:
        raise ServiceError(
            f"graph frame inconsistent: n={n} but {offsets.size} offsets"
        )
    try:
        return CSRGraph(
            offsets=offsets, edges=edges, name=str(data.get("name", ""))
        )
    except GraphError as exc:
        raise ServiceError(f"invalid graph: {exc}") from None


def encode_colors(colors: np.ndarray, *, binary: bool = False):
    return _encode_i64(colors, binary)


def decode_colors(value: Any) -> np.ndarray:
    """A color (or vertex-ID) array; always writable."""
    return _decode_i64(value)


# ----------------------------------------------------------------------
# Results and errors
# ----------------------------------------------------------------------
def result_to_wire(result: JobResult, *, binary: bool = False) -> Dict[str, Any]:
    """:meth:`JobResult.as_dict` with the colors as one ``colors_i64`` array."""
    return {
        "n_colors": result.n_colors,
        "colors_i64": encode_colors(result.colors, binary=binary),
        "algorithm": result.algorithm,
        "backend": result.backend,
        "engine": result.engine,
        "route": result.route,
        "cache_hit": result.cache_hit,
        "batched": result.batched,
        "attempts": result.attempts,
        "timings": dict(result.timings),
    }


def result_from_wire(payload: Dict[str, Any]) -> JobResult:
    return JobResult(
        colors=decode_colors(payload["colors_i64"]),
        n_colors=int(payload["n_colors"]),
        algorithm=payload["algorithm"],
        backend=payload.get("backend"),
        engine=payload.get("engine"),
        route=payload.get("route", ""),
        cache_hit=bool(payload.get("cache_hit", False)),
        batched=int(payload.get("batched", 0)),
        attempts=int(payload.get("attempts", 1)),
        timings=dict(payload.get("timings", {})),
    )


_ERROR_TYPES = {
    "RetryAfter": RetryAfter,
    "JobTimeout": JobTimeout,
    "JobFailed": JobFailed,
    "ServiceClosed": ServiceClosed,
    "ServiceError": ServiceError,
    "SessionError": SessionError,
    "SessionNotFound": SessionNotFound,
    "FingerprintMismatch": FingerprintMismatch,
}

_ERROR_CODES = {cls.code: cls for cls in _ERROR_TYPES.values()}
"""Stable machine-readable ``code`` → exception class.  The code is the
protocol's primary key for error identity; the type name rides along for
humans and for frames from servers predating codes."""


def error_to_wire(exc: BaseException) -> Dict[str, Any]:
    kind = type(exc) if type(exc).__name__ in _ERROR_TYPES else ServiceError
    wire: Dict[str, Any] = {
        "code": getattr(exc, "code", None) or kind.code,
        "type": kind.__name__,
        "message": str(exc),
    }
    if isinstance(exc, RetryAfter):
        wire["retry_after_s"] = exc.retry_after_s
    return wire


def wire_to_error(wire: Dict[str, Any]) -> ServiceError:
    kind = _ERROR_CODES.get(wire.get("code", ""))
    if kind is None:  # pre-code servers: fall back to the type name
        kind = _ERROR_TYPES.get(wire.get("type", ""), ServiceError)
    message = wire.get("message", "service error")
    if kind is RetryAfter:
        return RetryAfter(message, float(wire.get("retry_after_s", 0.05)))
    return kind(message)


# ----------------------------------------------------------------------
# Requests (the shared builder behind client and server)
# ----------------------------------------------------------------------
def request_to_wire(request: JobRequest, *, binary: bool = False) -> Dict[str, Any]:
    """The ``op="color"`` message body for one validated request.

    ``binary`` renders the graph as payloads and names its fingerprint
    in the header, for routers that place without decoding.
    """
    message: Dict[str, Any] = {
        "op": "color",
        "algorithm": request.algorithm,
        "backend": request.backend,
        "engine": request.engine,
        "opts": dict(request.opts),
        "priority": request.priority,
        "client_id": request.client_id,
        "timeout_s": request.timeout_s,
    }
    if request.graph is not None:
        message["graph"] = encode_graph(request.graph, binary=binary)
        if binary:
            message["fingerprint"] = request.graph.fingerprint()
    if request.dataset is not None:
        message["dataset"] = request.dataset
    return message


def request_from_wire(message: Dict[str, Any]) -> JobRequest:
    """Decode and re-validate an ``op="color"`` message server-side.

    A header ``fingerprint`` must match the decoded graph's, else
    :class:`FingerprintMismatch`; every other malformation raises
    :class:`ServiceError`.
    """
    graph = None
    if message.get("graph") is not None:
        graph = decode_graph(message["graph"])
        named = message.get("fingerprint")
        if named is not None and named != graph.fingerprint():
            raise FingerprintMismatch(
                f"header fingerprint {str(named)[:16]!r}... does not match "
                f"the graph it carries ({graph.fingerprint()[:16]}...)"
            )
    timeout_s = message.get("timeout_s")
    try:
        return build_request(
            graph=graph,
            dataset=message.get("dataset"),
            algorithm=message.get("algorithm", "bitwise"),
            backend=message.get("backend"),
            engine=message.get("engine"),
            opts=dict(message.get("opts") or {}),
            priority=int(message.get("priority", 0)),
            client_id=str(message.get("client_id", "socket")),
            timeout_s=None if timeout_s is None else float(timeout_s),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ServiceError(str(exc)) from None


# ----------------------------------------------------------------------
# Session lane
# ----------------------------------------------------------------------
def session_info_to_wire(info, *, binary: bool = False) -> Dict[str, Any]:
    return {
        "session_id": info.session_id,
        "fingerprint": info.fingerprint,
        "colors_i64": encode_colors(info.colors, binary=binary),
        "n_colors": int(info.n_colors),
        "algorithm": info.algorithm,
        "backend": info.backend,
        "num_vertices": int(info.num_vertices),
        "num_edges": int(info.num_edges),
        "graph_reused": bool(info.graph_reused),
    }


def session_info_from_wire(payload: Dict[str, Any]):
    from .sessions import SessionInfo

    return SessionInfo(
        session_id=payload["session_id"],
        fingerprint=payload["fingerprint"],
        colors=decode_colors(payload["colors_i64"]),
        n_colors=int(payload["n_colors"]),
        algorithm=payload["algorithm"],
        backend=payload.get("backend"),
        num_vertices=int(payload["num_vertices"]),
        num_edges=int(payload["num_edges"]),
        graph_reused=bool(payload.get("graph_reused", False)),
    )


def encode_edge_pairs(pairs, *, binary: bool = False):
    """Edge list → one flattened ``int64`` array field."""
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise ServiceError("edge batch must contain (u, v) pairs")
    return _encode_i64(arr.reshape(-1), binary)


def decode_edge_pairs(value: Any) -> np.ndarray:
    flat = _decode_i64(value)
    if flat.size % 2:
        raise ServiceError("edge buffer has an odd number of endpoints")
    return flat.reshape(-1, 2)


def apply_outcome_to_wire(outcome, *, binary: bool = False) -> Dict[str, Any]:
    """Sparse diff of one delta batch — only recolored vertices ride."""
    return {
        "epoch": int(outcome.epoch),
        "mode": outcome.mode,
        "changed_i64": _encode_i64(outcome.changed, binary),
        "colors_i64": _encode_i64(outcome.colors, binary),
        "n_colors": int(outcome.n_colors),
        "num_vertices": int(outcome.num_vertices),
        "edges_added": int(outcome.edges_added),
        "edges_removed": int(outcome.edges_removed),
        "conflicts": int(outcome.conflicts),
        "repair_rounds": int(outcome.repair_rounds),
        "churn": float(outcome.churn),
        "cache_invalidated": int(outcome.cache_invalidated),
    }


def apply_outcome_from_wire(payload: Dict[str, Any]):
    from .sessions import ApplyOutcome

    return ApplyOutcome(
        epoch=int(payload["epoch"]),
        mode=payload["mode"],
        changed=_decode_i64(payload["changed_i64"]),
        colors=_decode_i64(payload["colors_i64"]),
        n_colors=int(payload["n_colors"]),
        num_vertices=int(payload["num_vertices"]),
        edges_added=int(payload.get("edges_added", 0)),
        edges_removed=int(payload.get("edges_removed", 0)),
        conflicts=int(payload.get("conflicts", 0)),
        repair_rounds=int(payload.get("repair_rounds", 0)),
        churn=float(payload.get("churn", 0.0)),
        cache_invalidated=int(payload.get("cache_invalidated", 0)),
    )


# ----------------------------------------------------------------------
# Mesh shard protocol (cross-worker shared-memory coloring)
# ----------------------------------------------------------------------
def shard_spec_to_wire(spec) -> Dict[str, Any]:
    """JSON-safe rendering of a :class:`~repro.parallel.shm.CSRSpec`.

    Only the block names and dimensions cross the wire — the graph
    itself travels through shared memory.  ``meta`` is deliberately
    dropped: colors are a pure function of the CSR arrays, and meta may
    hold values JSON cannot carry.
    """
    return {
        "offsets_name": spec.offsets_name,
        "edges_name": spec.edges_name,
        "num_vertices": int(spec.num_vertices),
        "num_edges": int(spec.num_edges),
        "graph_name": spec.graph_name,
    }


def shard_spec_from_wire(data: Dict[str, Any]):
    from ..parallel.shm import CSRSpec

    return CSRSpec(
        offsets_name=str(data["offsets_name"]),
        edges_name=str(data["edges_name"]),
        num_vertices=int(data["num_vertices"]),
        num_edges=int(data["num_edges"]),
        graph_name=str(data.get("graph_name", "")),
    )
