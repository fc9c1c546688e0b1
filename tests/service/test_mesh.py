"""End-to-end mesh tests: routing, failover, shard path, one engine.

Everything here runs real worker processes (fork) over real Unix
sockets; the pure placement policy is covered separately in
``test_placement.py``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import color as direct_color
from repro.graph import erdos_renyi
from repro.obs import Registry
from repro.service import (
    ColoringMesh,
    ColoringService,
    FingerprintMismatch,
    JobRequest,
    MeshConfig,
    MeshServer,
    ServiceConfig,
    SessionNotFound,
    build_request,
    connect,
)
from repro.service.protocol import (
    decode_body,
    encode_body,
    request_to_wire,
    result_from_wire,
    wire_to_error,
)


def _mesh_config(**overrides) -> MeshConfig:
    overrides.setdefault("workers", 2)
    overrides.setdefault(
        "service",
        ServiceConfig(executors=1, registry=Registry(enabled=False)),
    )
    overrides.setdefault("shard_threshold_vertices", None)
    return MeshConfig(**overrides)


@pytest.fixture(scope="module")
def mesh():
    with ColoringMesh(_mesh_config()) as m:
        yield m


# ----------------------------------------------------------------------
# Forward path
# ----------------------------------------------------------------------
def test_forward_parity_and_cache_affinity(mesh):
    g = erdos_renyi(150, 0.08, seed=41, name="mesh-fwd")
    served = mesh.color(g, retries=8)
    assert np.array_equal(served.colors, direct_color(g).colors)
    assert not served.cache_hit
    # Consistent hashing sends the byte-identical graph back to the same
    # worker, whose result cache still holds it.
    again = mesh.color(g, retries=8)
    assert again.cache_hit
    assert np.array_equal(again.colors, served.colors)


def test_dataset_jobs_forward(mesh):
    from repro.experiments import load_dataset

    expected = direct_color(load_dataset("EF", preprocessed=True))
    served = mesh.color(dataset="EF", retries=8)
    assert np.array_equal(served.colors, expected.colors)


def test_status_aggregates_workers(mesh):
    snapshot = mesh.status()
    assert snapshot["mode"] == "mesh"
    assert snapshot["status"] == "ok"
    assert snapshot["placement"]["live"] == ["w0", "w1"]
    assert set(snapshot["workers"]) == {"w0", "w1"}
    for worker_snapshot in snapshot["workers"].values():
        assert "queue_depth" in worker_snapshot


def test_distinct_graphs_spread_over_workers(mesh):
    graphs = [
        erdos_renyi(90 + 5 * i, 0.08, seed=500 + i, name=f"spread{i}")
        for i in range(12)
    ]
    homes = {
        mesh.placement.home(g.fingerprint()) for g in graphs
    }
    assert homes == {"w0", "w1"}


# ----------------------------------------------------------------------
# Shard path
# ----------------------------------------------------------------------
def test_shard_path_matches_parallel_backend():
    g = erdos_renyi(900, 0.01, seed=42, name="mesh-shard")
    expected = direct_color(g, "bitwise", backend="parallel")
    with ColoringMesh(_mesh_config(shard_threshold_vertices=100)) as m:
        served = m.color(g)
        assert served.route.startswith("mesh-shard")
        assert np.array_equal(served.colors, expected.colors)
        assert served.n_colors == expected.n_colors
        # Below the threshold the same mesh forwards instead.
        small = erdos_renyi(60, 0.1, seed=43, name="mesh-small")
        forwarded = m.color(small, retries=8)
        assert not forwarded.route.startswith("mesh-shard")
        assert np.array_equal(
            forwarded.colors, direct_color(small).colors
        )


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
def test_worker_death_rehashes_and_fails_over():
    with ColoringMesh(_mesh_config()) as m:
        victim = m._workers["w1"]
        victim.process.kill()
        victim.process.join(timeout=10)
        m.check_workers()
        assert m.placement.dead_workers == ["w1"]
        assert m.placement.live_workers == ["w0"]
        assert m.placement.stats()["rehashes"] == 1
        # Every key now lands on the survivor; jobs keep completing.
        for i in range(4):
            g = erdos_renyi(80 + i, 0.1, seed=600 + i, name=f"fo{i}")
            served = m.color(g, retries=8)
            assert np.array_equal(served.colors, direct_color(g).colors)
        assert m.status()["status"] == "ok"


def test_sessions_on_a_dead_worker_are_lost_loudly():
    with ColoringMesh(_mesh_config()) as m:
        register = {
            "op": "session.register",
            "dataset": "EF",
            "algorithm": "bitwise",
            "client_id": "t",
        }
        response = m.forward_session(register)
        assert response["ok"], response
        session_id = response["session"]["session_id"]
        home = m._session_homes[session_id]
        m._workers[home].process.kill()
        m._workers[home].process.join(timeout=10)
        m.check_workers()
        followup = m.forward_session(
            {"op": "session.verify", "session_id": session_id}
        )
        assert not followup["ok"]
        assert followup["error"]["code"] == "session_not_found"


# ----------------------------------------------------------------------
# Router socket (MeshServer)
# ----------------------------------------------------------------------
def test_mesh_server_serves_the_service_protocol():
    socket_path = Path(tempfile.mkdtemp(prefix="repro-mesh-test-")) / "r.sock"
    with ColoringMesh(_mesh_config()) as m:
        server = MeshServer(m, socket_path).run_in_thread()
        try:
            with connect(socket_path, client_id="t") as client:
                assert client.ping()
                g = erdos_renyi(120, 0.08, seed=77, name="via-socket")
                served = client.color(g, retries=8)
                assert np.array_equal(
                    served.colors, direct_color(g).colors
                )
                # The mesh-status op aggregates the fleet.
                frame = client.call({"op": "mesh.status"})
                assert frame["ok"]
                assert frame["status"]["mode"] == "mesh"
                # The session lane round-trips through the router too.
                with client.register(dataset="EF") as handle:
                    out = handle.apply(additions=[(0, 5)])
                    assert out.epoch == 1
                    summary = handle.verify()
                    assert summary["n_colors"] >= 1
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# One execution path
# ----------------------------------------------------------------------
def test_service_and_mesh_share_the_execution_engine(monkeypatch):
    """The dispatcher hands every unit to ExecutionEngine — placement
    decides, the engine executes, and the mesh (whose workers run this
    exact service) therefore produces identical colors."""
    g = erdos_renyi(140, 0.08, seed=99, name="engine-parity")
    ran = []
    with ColoringService(
        ServiceConfig(executors=1, registry=Registry(enabled=False))
    ) as svc:
        real_single = svc.engine.run_single
        real_batch = svc.engine.run_batch

        def spy_single(job, decision):
            ran.append("single")
            return real_single(job, decision)

        def spy_batch(batch, decision):
            ran.append("batch")
            return real_batch(batch, decision)

        monkeypatch.setattr(svc.engine, "run_single", spy_single)
        monkeypatch.setattr(svc.engine, "run_batch", spy_batch)
        job = svc.submit(JobRequest(graph=g))
        in_process = job.result_or_raise(timeout=60)
    assert ran, "service dispatch bypassed the ExecutionEngine"
    with ColoringMesh(_mesh_config()) as m:
        meshed = m.color(g, retries=8)
    assert np.array_equal(in_process.colors, meshed.colors)
    assert np.array_equal(in_process.colors, direct_color(g).colors)


# ----------------------------------------------------------------------
# Header routing: place on the client's fingerprint, forward the bytes
# ----------------------------------------------------------------------
def _color_body(graph, **header):
    message = request_to_wire(build_request(graph=graph), binary=True)
    message.update(header)
    return encode_body(message)


def test_router_places_on_the_header_fingerprint_without_decoding(
    mesh, monkeypatch
):
    import repro.service.mesh as mesh_module

    g = erdos_renyi(130, 0.08, seed=61, name="header-routed")
    body = _color_body(g)
    called = []
    real_call = mesh._call_worker
    monkeypatch.setattr(
        mesh,
        "_call_worker",
        lambda name, sent: called.append((name, sent)) or real_call(name, sent),
    )

    def no_decode(message):  # pragma: no cover - failing path only
        raise AssertionError("router decoded a graph it could route by header")

    monkeypatch.setattr(mesh_module, "request_from_wire", no_decode)
    reply = mesh.route_color(decode_body(body), body)
    assert called == [(mesh.placement.home(g.fingerprint()), body)]
    result = result_from_wire(decode_body(reply)["result"])
    assert np.array_equal(result.colors, direct_color(g).colors)


def test_wrong_fingerprint_is_refused_by_the_worker_and_relayed_unchanged(mesh):
    g = erdos_renyi(110, 0.08, seed=62, name="lying-header")
    wrong = "0" * 64
    body = _color_body(g, fingerprint=wrong)
    socket_path = Path(tempfile.mkdtemp(prefix="repro-mesh-test-")) / "r.sock"
    server = MeshServer(mesh, socket_path).run_in_thread()
    try:
        with connect(socket_path) as client:
            via_router = client.exchange(body)
    finally:
        server.shutdown()
    home = mesh._workers[mesh.placement.home(wrong)]
    assert via_router == home.link.exchange(body)  # byte for byte
    response = decode_body(via_router)
    assert not response["ok"]
    assert response["error"]["code"] == "fingerprint_mismatch"
    assert isinstance(wire_to_error(response["error"]), FingerprintMismatch)


def test_json_bodies_are_fingerprinted_at_the_router_and_answered_in_kind(mesh):
    g = erdos_renyi(120, 0.08, seed=63, name="json-client")
    body = encode_body(request_to_wire(build_request(graph=g)))
    assert body.startswith(b"{") and "fingerprint" not in decode_body(body)
    reply = mesh.route_color(decode_body(body), body)
    assert reply.startswith(b"{")
    result = result_from_wire(decode_body(reply)["result"])
    assert np.array_equal(result.colors, direct_color(g).colors)


# ----------------------------------------------------------------------
# Shutdown hygiene
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_with_a_pooled_connection_prints_no_traceback(tmp_path, workers):
    """SIGTERM while a client still holds its connection open: the
    server drains and exits 0, and stderr carries no traceback."""
    import os
    import signal
    import subprocess
    import sys

    socket_path = tmp_path / "s.sock"
    cmd = [sys.executable, "-m", "repro.cli", "serve", "--socket", str(socket_path)]
    if workers > 1:
        cmd += ["--workers", str(workers)]
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    with open(tmp_path / "stderr", "wb") as stderr:
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=stderr
        )
        try:
            deadline = time.monotonic() + 60
            while not socket_path.exists():
                assert proc.poll() is None, "server exited during boot"
                assert time.monotonic() < deadline, "server did not bind"
                time.sleep(0.05)
            client = connect(socket_path, connect_timeout=30)
            g = erdos_renyi(100, 0.1, seed=64, name="pooled")
            assert np.array_equal(
                client.color(g, retries=8).colors, direct_color(g).colors
            )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            client.close()
        finally:
            if proc.poll() is None:  # pragma: no cover - failing path only
                proc.kill()
                proc.wait()
    text = (tmp_path / "stderr").read_text(errors="replace")
    assert "Traceback" not in text, text
