"""Traced in-process replay of a wire workload, one span per layer call.

The replay walks the same requests the timed run sent, through the same
public functions the client and server call, in the same order:

    client encode   build_request + request_to_wire + JSON encode
    server decode   JSON decode + request_from_wire
    fingerprint     csr_fingerprint
    route           Router.route
    kernel          repro.color on the routed backend, or run_microbatch
    result encode   result_to_wire + JSON encode
    client decode   JSON decode + result_from_wire

and, for session deltas, ``IncrementalColoring.apply_batch``.  Spans are
kept in memory and written out once at the end.  Spans inside the
program are not recorded here; every span wraps a call into one layer.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import repro
from repro.coloring.incremental import IncrementalColoring
from repro.graph import csr_fingerprint
from repro.service import JobResult, Router, build_request, run_microbatch
from repro.service.protocol import (
    request_from_wire,
    request_to_wire,
    result_from_wire,
    result_to_wire,
)

LAYERS = (
    "protocol.client_encode_ms",
    "protocol.server_decode_ms",
    "graph.fingerprint_ms",
    "router.route_ms",
    "kernels.color_ms",
    "protocol.result_encode_ms",
    "protocol.client_decode_ms",
)
"""Per-request layer spans, in call order (span name = metric stem)."""


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: int
    cls: str


class Tracer:
    """Collects spans in memory; self time is derived at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def record(self, name: str, start: float, end: float, parent: Optional[int],
               request_id: int, cls: str) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, request_id, cls))
        return span_id

    def self_times_ms(self) -> Dict[int, float]:
        """Span duration minus the part its children cover (children of
        one span never overlap here: the replay is sequential)."""
        child = {s.span_id: 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return {s.span_id: (s.end - s.start - child[s.span_id]) * 1e3 for s in self.spans}

    def to_json(self) -> List[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


class Replay:
    """Replays requests and deltas layer by layer into a :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.router = Router()
        self.request_bytes: Dict[str, List[int]] = {"small": [], "large": []}
        self.mismatches = 0
        self._next_request = 0

    def color(self, cls: str, graph, reference: np.ndarray, cache_hit: bool) -> None:
        """One color request.  A request the timed run saw answered from
        the result cache skips the route and kernel spans, as the server
        did."""
        rid = self._next_request
        self._next_request += 1
        clock = time.perf_counter
        root_start = clock()
        spans = []

        t0 = clock()
        request = build_request(graph=graph, client_id="bench")
        frame = json.dumps(request_to_wire(request), sort_keys=True).encode()
        t1 = clock()
        spans.append(("protocol.client_encode_ms", t0, t1))
        self.request_bytes[cls].append(len(frame))

        served = request_from_wire(json.loads(frame.decode()))
        t2 = clock()
        spans.append(("protocol.server_decode_ms", t1, t2))

        csr_fingerprint(served.graph)
        t3 = clock()
        spans.append(("graph.fingerprint_ms", t2, t3))

        if cache_hit:
            colors, route, backend, engine = reference, "cache", None, None
            t5 = t3
        else:
            decision = self.router.route(served, served.graph)
            t4 = clock()
            spans.append(("router.route_ms", t3, t4))
            backend, engine, route = decision.backend, decision.engine, decision.label
            if decision.lane == "batch":
                colors = run_microbatch([served.graph], decision.batch_key)[0][0]
            else:
                extra = {"engine": engine} if engine else {}
                colors = repro.color(
                    served.graph, served.algorithm, backend=backend, **extra, **served.opts
                ).colors
            t5 = clock()
            spans.append(("kernels.color_ms", t4, t5))

        result = JobResult(
            colors=np.asarray(colors),
            n_colors=int(np.max(colors, initial=0)),
            algorithm=served.algorithm,
            backend=backend,
            engine=engine,
            route=route,
            cache_hit=cache_hit,
        )
        reply = json.dumps({"ok": True, "result": result_to_wire(result)}, sort_keys=True).encode()
        t6 = clock()
        spans.append(("protocol.result_encode_ms", t5, t6))

        decoded = result_from_wire(json.loads(reply.decode())["result"])
        t7 = clock()
        spans.append(("protocol.client_decode_ms", t6, t7))

        if not np.array_equal(decoded.colors, reference):
            self.mismatches += 1
        root = self.tracer.record("request", root_start, clock(), None, rid, cls)
        for name, start, end in spans:
            self.tracer.record(name, start, end, root, rid, cls)

    def apply(self, inc: IncrementalColoring, additions, removals) -> None:
        rid = self._next_request
        self._next_request += 1
        t0 = time.perf_counter()
        inc.apply_batch(additions=additions, removals=removals)
        self.tracer.record("incremental.apply_ms", t0, time.perf_counter(), None, rid, "apply")


def layer_table(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per class: p50 over its requests of each layer's self time.

    A layer a request skipped (route and kernel on a cache hit) counts as
    0 for that request, so the p50s of one class add up comparably to
    its round-trip p50.  ``"request"`` is the replay's own gap.
    """
    self_ms = tracer.self_times_ms()
    per_request: Dict[int, Dict[str, float]] = {}
    cls_of: Dict[int, str] = {}
    for s in tracer.spans:
        if s.parent is None:
            cls_of[s.request_id] = s.cls
        per_request.setdefault(s.request_id, {})[s.name] = self_ms[s.span_id]
    names_of: Dict[str, set] = {}
    for rid, layers in per_request.items():
        names_of.setdefault(cls_of[rid], set()).update(layers)
    return {
        cls: {
            name: float(np.median([
                per_request[rid].get(name, 0.0) for rid in cls_of if cls_of[rid] == cls
            ]))
            for name in names
        }
        for cls, names in names_of.items()
    }
