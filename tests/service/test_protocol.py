"""Binary frames: round trips against the JSON fallback, and fuzzing.

Every byte string a peer can send goes through :func:`decode_body` and,
for requests, :func:`request_from_wire`.  Whatever the bytes, the pair
must either decode or raise :class:`ServiceError` — never another
exception type, never a silently wrong graph.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, erdos_renyi
from repro.service import ServiceError, build_request
from repro.service.protocol import (
    BINARY_MAGIC,
    MAX_FRAME_BYTES,
    decode_body,
    decode_colors,
    decode_edge_pairs,
    decode_graph,
    encode_body,
    encode_colors,
    encode_edge_pairs,
    encode_graph,
    is_binary,
    read_frame,
    read_frame_async,
    request_from_wire,
    request_to_wire,
    write_frame,
)

common = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices=24, max_edges=60):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return CSRGraph.from_edge_list(n, edges, name=draw(st.text(max_size=8)))


def _request_body(graph: CSRGraph, *, binary: bool) -> bytes:
    return encode_body(request_to_wire(build_request(graph=graph), binary=binary))


def _decode_request(body: bytes):
    """What a server does with an untrusted color request body."""
    return request_from_wire(decode_body(body))


def _same_graph(a: CSRGraph, b: CSRGraph) -> bool:
    return np.array_equal(a.offsets, b.offsets) and np.array_equal(a.edges, b.edges)


def _binary_body(header: dict, payload: bytes) -> bytes:
    """A binary frame with a hand-written header (references and all)."""
    text = json.dumps(header).encode()
    pad = bytes(-(len(BINARY_MAGIC) + 4 + len(text)) % 8)
    return BINARY_MAGIC + struct.pack(">I", len(text)) + text + pad + payload


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@common
@given(
    graph=graphs(),
    colors=st.lists(st.integers(-(2**40), 2**40), max_size=40),
    pairs=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=20),
)
def test_binary_and_json_frames_decode_to_equal_messages(graph, colors, pairs):
    colors = np.array(colors, dtype=np.int64)
    decoded = []
    for binary in (True, False):
        message = {
            "op": "probe",
            "graph": encode_graph(graph, binary=binary),
            "colors_i64": encode_colors(colors, binary=binary),
            "additions_i64": encode_edge_pairs(pairs, binary=binary),
        }
        body = encode_body(message)
        assert is_binary(body) == binary
        back = decode_body(body)
        decoded.append(
            (
                decode_graph(back["graph"]),
                decode_colors(back["colors_i64"]),
                decode_edge_pairs(back["additions_i64"]),
            )
        )
    (g_bin, c_bin, p_bin), (g_json, c_json, p_json) = decoded
    assert _same_graph(g_bin, graph) and _same_graph(g_json, graph)
    assert g_bin.fingerprint() == g_json.fingerprint() == graph.fingerprint()
    assert g_bin.name == g_json.name == graph.name
    assert np.array_equal(c_bin, colors) and np.array_equal(c_json, colors)
    assert np.array_equal(p_bin, p_json)
    assert p_bin.shape == (len(pairs), 2)
    # Decoded color arrays stay writable, whichever form carried them.
    assert c_bin.flags.writeable and c_json.flags.writeable


def test_binary_request_carries_fingerprint_and_aligned_zero_copy_arrays():
    graph = erdos_renyi(300, 0.05, seed=5, name="aligned")
    message = request_to_wire(build_request(graph=graph), binary=True)
    assert message["fingerprint"] == graph.fingerprint()
    # The JSON default renders exactly what the all-JSON protocol did.
    assert "fingerprint" not in request_to_wire(build_request(graph=graph))
    body = encode_body(message)
    assert body.startswith(BINARY_MAGIC)
    # Payloads are raw int64: the frame is barely larger than the arrays.
    raw = graph.offsets.nbytes + graph.edges.nbytes
    assert raw < len(body) < raw + 1024
    served = _decode_request(body).graph
    for arr in (served.offsets, served.edges):
        assert arr.flags.aligned and arr.dtype == np.int64
        assert not arr.flags.owndata  # a view into the body, not a copy
    assert _same_graph(served, graph)


def test_colors_from_a_socket_are_writable_views():
    colors = np.arange(10, dtype=np.int64)
    a, b = socket.socketpair()
    try:
        write_frame(a, {"colors_i64": encode_colors(colors, binary=True)})
        back = decode_colors(read_frame(b)["colors_i64"])
    finally:
        a.close()
        b.close()
    assert np.array_equal(back, colors)
    back[0] = 99  # must not raise


def test_raw_read_returns_the_body_unchanged():
    body = _request_body(erdos_renyi(40, 0.1, seed=1), binary=True)
    a, b = socket.socketpair()
    try:
        write_frame(a, body)
        assert read_frame(b, raw=True) == body
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# Fuzzing the decoder of untrusted bytes
# ----------------------------------------------------------------------
@common
@given(graph=graphs(), binary=st.booleans(), data=st.data())
def test_truncated_bodies_raise_service_error(graph, binary, data):
    body = _request_body(graph, binary=binary)
    cut = data.draw(st.integers(0, len(body) - 1))
    with pytest.raises(ServiceError):
        _decode_request(body[:cut])


@common
@given(graph=graphs(), extra=st.integers(1, 1 << 20))
def test_header_length_past_the_body_raises(graph, extra):
    body = bytearray(_request_body(graph, binary=True))
    struct.pack_into(">I", body, len(BINARY_MAGIC), len(body) - 8 + extra)
    with pytest.raises(ServiceError, match="runs past"):
        _decode_request(bytes(body))


@common
@given(
    payload_words=st.integers(0, 16),
    refs=st.lists(
        st.tuples(st.integers(-16, 200), st.integers(-16, 200)),
        min_size=2,
        max_size=2,
    ),
)
def test_bad_payload_references_raise(payload_words, refs):
    (off_a, len_a), (off_b, len_b) = refs
    header = {
        "op": "color",
        "graph": {
            "n": 1,
            "offsets": {"$i64": [off_a, len_a]},
            "edges": {"$i64": [off_b, len_b]},
        },
    }
    body = _binary_body(header, bytes(8 * payload_words))
    spans = sorted(refs)
    valid = (
        all(o >= 0 and n >= 0 and o % 8 == 0 and n % 8 == 0 for o, n in refs)
        and all(o + n <= 8 * payload_words for o, n in refs)
        and spans[1][0] >= spans[0][0] + spans[0][1]
    )
    if valid:
        try:
            _decode_request(body)
        except ServiceError:
            pass  # references are fine; the graph itself may not be
    else:
        with pytest.raises(ServiceError):
            decode_body(body)


@pytest.mark.parametrize(
    "refs, match",
    [
        ([[0, 16], [8, 8]], "overlap"),
        ([[0, 12], [16, 8]], "whole int64s"),
        ([[4, 8], [16, 8]], "whole int64s"),
        ([[0, 16], [16, 64]], "runs past"),
        ([[0, "16"], [16, 8]], "malformed payload reference"),
    ],
)
def test_each_reference_rule_has_its_error(refs, match):
    header = {"graph": {"offsets": {"$i64": refs[0]}, "edges": {"$i64": refs[1]}}}
    with pytest.raises(ServiceError, match=match):
        decode_body(_binary_body(header, bytes(32)))


@common
@given(graph=graphs(), binary=st.booleans(), delta=st.integers(-5, 5))
def test_n_inconsistent_with_offsets_raises(graph, binary, delta):
    message = request_to_wire(build_request(graph=graph), binary=binary)
    message["graph"]["n"] = graph.num_vertices + (delta or 1)
    with pytest.raises(ServiceError, match="inconsistent"):
        _decode_request(encode_body(message))


@common
@given(
    offsets=st.lists(st.integers(-3, 6), min_size=1, max_size=6),
    edges=st.lists(st.integers(-3, 6), max_size=8),
    binary=st.booleans(),
)
def test_invalid_csr_arrays_raise_service_error(offsets, edges, binary):
    """Arrays that are not a CSR graph fail as ServiceError, not GraphError."""
    message = {
        "op": "color",
        "graph": {
            "n": len(offsets) - 1,
            "offsets": encode_colors(np.array(offsets), binary=binary),
            "edges": encode_colors(np.array(edges, dtype=np.int64), binary=binary),
        },
    }
    try:
        request = _decode_request(encode_body(message))
    except ServiceError:
        return
    assert request.graph.num_vertices == len(offsets) - 1


@common
@given(tail=st.binary(max_size=200), binary=st.booleans())
def test_arbitrary_bytes_decode_or_raise_service_error(tail, binary):
    body = (BINARY_MAGIC if binary else b"") + tail
    try:
        message = decode_body(body)
        request_from_wire(message)
    except ServiceError:
        pass


_json_values = st.one_of(
    st.integers(),
    st.floats(),  # NaN and +-Infinity included: Python's JSON carries them
    st.text(max_size=12),
    st.none(),
    st.lists(st.integers(), max_size=3),
)


@common
@given(
    graph_field=st.one_of(
        st.none(),
        st.integers(),
        st.text(max_size=5),
        st.dictionaries(
            st.sampled_from(["n", "offsets", "edges", "name"]), _json_values
        ),
    ),
    extra=st.dictionaries(
        st.sampled_from(
            ["dataset", "opts", "priority", "timeout_s", "fingerprint", "engine"]
        ),
        _json_values,
    ),
)
def test_malformed_json_requests_raise_service_error(graph_field, extra):
    message = {"op": "color", "graph": graph_field, **extra}
    try:
        _decode_request(json.dumps(message).encode())
    except ServiceError:
        pass


@pytest.mark.parametrize(
    "field, value",
    [("n", "Infinity"), ("n", "NaN"), ("priority", "-Infinity")],
)
def test_non_finite_numbers_raise_service_error(field, value):
    graph = erdos_renyi(10, 0.3, seed=2)
    message = request_to_wire(build_request(graph=graph))
    target = message["graph"] if field == "n" else message
    target[field] = "@"
    body = json.dumps(message).replace('"@"', value).encode()
    with pytest.raises(ServiceError):
        _decode_request(body)


def test_async_length_prefix_above_cap_raises_service_error():
    # (The blocking reader's cap is tested in test_server.py.)
    async def read_async():
        reader = asyncio.StreamReader()
        reader.feed_data(struct.pack(">I", MAX_FRAME_BYTES + 1))
        reader.feed_eof()
        return await read_frame_async(reader)

    with pytest.raises(ServiceError, match="cap"):
        asyncio.run(read_async())


def test_async_read_rejects_truncated_frames():
    async def read(data: bytes):
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame_async(reader)

    assert asyncio.run(read(b"")) is None  # clean EOF
    with pytest.raises(ServiceError, match="mid-frame"):
        asyncio.run(read(b"\x00\x00"))
    with pytest.raises(ServiceError, match="mid-frame"):
        asyncio.run(read(struct.pack(">I", 10) + b"{}"))


def test_unknown_body_format_raises():
    with pytest.raises(ServiceError, match="unknown body format"):
        decode_body(b"RPB\x02" + bytes(12))
    with pytest.raises(ServiceError, match="malformed JSON"):
        decode_body(b'{"op": ')
    with pytest.raises(ServiceError, match="one JSON object"):
        decode_body(_binary_body([1, 2], b""))
