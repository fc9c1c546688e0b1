"""Socket workloads: boot ``repro.cli serve``, drive it, read its counters.

The server runs as a subprocess of the benchmark and is reached only
through the public client API (:func:`repro.service.connect`) and the
``status`` op.  Load comes from this one process: one thread and one
connection per client, closed loop (each client sends its next request
only after the previous reply arrived).
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.service import ServiceError, connect

from workloads import APPLY_EVERY, HotPlan, Request

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def shm_segments() -> set:
    """Names of the parallel backend's shared-memory segments right now."""
    try:
        return {p for p in os.listdir("/dev/shm") if p.startswith("psm_")}
    except OSError:
        return set()


class Server:
    """One ``repro.cli serve`` subprocess on a Unix socket."""

    def __init__(self, root: Path, run_dir: Path, env: Dict[str, str], workers: int):
        self.socket = run_dir / f"s{os.getpid()}-{id(self) % 10_000}.sock"
        self.stderr_path = run_dir / f"{self.socket.stem}.err"
        self.socket.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--socket", str(self.socket)]
        if workers > 1:
            cmd += ["--workers", str(workers)]
        self._shm_before = shm_segments()
        self._stderr = open(self.stderr_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
            start_new_session=True,
        )
        try:
            self.boot_s = self._wait_ready(t0)
        except BaseException:
            self.kill()
            raise

    def _wait_ready(self, t0: float) -> float:
        """Seconds from spawn until the first ``ping`` is answered."""
        deadline = t0 + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited during boot (code {self.proc.returncode}); "
                    f"see {self.stderr_path}"
                )
            if self.socket.exists():
                try:
                    with connect(self.socket, connect_timeout=1.0) as client:
                        if client.ping():
                            return time.perf_counter() - t0
                except (ServiceError, OSError):
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server did not answer ping within {BOOT_TIMEOUT_S}s")

    def client(self, name: str):
        return connect(self.socket, client_id=name)

    def stop(self) -> Dict[str, float]:
        """SIGTERM, wait, and probe how cleanly the server went away."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -9
        self._stderr.close()
        text = self.stderr_path.read_text(errors="replace")
        return {
            "server.exit_code": float(code),
            "server.shutdown_traceback_lines": float(text.count("Traceback")),
            "shm.leaked_segments": float(len(shm_segments() - self._shm_before)),
        }

    def kill(self) -> None:
        """Hard stop of the whole process group (failure paths only)."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        if not self._stderr.closed:
            self._stderr.close()


def peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (``VmHWM``) of ``pid`` and all its descendants.

    Read from ``/proc`` while the server is still up.  ``RUSAGE_CHILDREN``
    is no substitute on Linux: a child's ``ru_maxrss`` starts from the
    spawning process's RSS, so it would report the benchmark's own size.
    """
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry))
    total_kib = 0
    todo = [pid]
    while todo:
        current = todo.pop()
        todo.extend(children.get(current, []))
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


@dataclass
class Op:
    kind: str  # "small", "large" or "apply"
    latency_s: float
    key: int = -1
    """Cold stream index or catalog index of the request (-1 for applies)."""
    edges: int = 0
    result: Any = None
    """``JobResult`` for color ops, ``ApplyOutcome`` for applies."""
    error: Optional[str] = None


@dataclass
class LoopResult:
    ops: List[Op]
    elapsed_s: float
    sessions: List[Any] = field(default_factory=list)


def _color(client, request: Request, key: int) -> Op:
    t0 = time.perf_counter()
    try:
        result = client.color(request.graph)
    except ServiceError as exc:
        return Op(request.cls, time.perf_counter() - t0, key, request.edges, error=repr(exc))
    return Op(request.cls, time.perf_counter() - t0, key, request.edges, result)


def cold_loop(
    server: Server,
    make_request: Callable[[int], Request],
    seconds: float,
    connections: int,
    limit: Optional[int] = None,
) -> LoopResult:
    """Closed loop over a shared stream of unique graphs.

    Each client builds its next request (``make_request(index)``) before
    starting that request's clock, so building is client think time and
    never part of a latency.  ``limit`` caps the stream (warm-up only).
    """
    lock = threading.Lock()
    indices = itertools.count()

    def worker(i: int, deadline: float) -> List[Op]:
        mine: List[Op] = []
        with server.client(f"bench-{i}") as client:
            while time.perf_counter() < deadline:
                with lock:
                    index = next(indices)
                if limit is not None and index >= limit:
                    break
                mine.append(_color(client, make_request(index), index))
        return mine

    ops, elapsed = _run_threads(worker, connections, seconds)
    return LoopResult(ops, elapsed)


def hot_loop(
    server: Server, plan: HotPlan, seconds: float, connections: int
) -> LoopResult:
    """Closed loop of Zipf repeats plus one delta-streaming session each.

    After the timed window every session is checked: the client mirror
    must equal the server's dense colors and ``session.verify`` must
    pass.  ``LoopResult.sessions`` holds one ``(mirror_ok, verify_ok)``
    pair per connection.
    """
    clients = [server.client(f"bench-{i}") for i in range(connections)]
    try:
        handles = [c.register(s.graph) for c, s in zip(clients, plan.sessions)]

        def worker(i: int, deadline: float) -> List[Op]:
            picks = iter(plan.picks[i])
            batches = iter(plan.sessions[i].batches)
            mine: List[Op] = []
            op_index = 0
            while time.perf_counter() < deadline:
                op_index += 1
                if op_index % APPLY_EVERY == 0:
                    batch = next(batches, None)
                    if batch is None:
                        break
                    mine.append(_apply(handles[i], batch))
                    continue
                pick = next(picks, None)
                if pick is None:
                    break
                mine.append(_color(clients[i], plan.catalog[int(pick)], int(pick)))
            return mine

        ops, elapsed = _run_threads(worker, connections, seconds)
        checks = []
        for handle in handles:
            mirror = handle.colors.copy()
            mirror_ok = bool(np.array_equal(mirror, handle.resync()))
            checks.append((mirror_ok, bool(handle.verify().get("valid"))))
            handle.close()
        return LoopResult(ops, elapsed, sessions=checks)
    finally:
        for client in clients:
            client.close()


def _apply(handle, batch) -> Op:
    t0 = time.perf_counter()
    try:
        outcome = handle.apply(additions=batch[0], removals=batch[1])
    except ServiceError as exc:
        return Op("apply", time.perf_counter() - t0, error=repr(exc))
    return Op("apply", time.perf_counter() - t0, result=outcome)


def _run_threads(worker, connections: int, seconds: float):
    """Run ``worker(i, deadline)`` on ``connections`` threads; gather ops.

    A client that stops early (an exception) fails the whole run: a
    silently shortened load would bias every latency figure.
    """
    results: List[Any] = [None] * connections

    def target(i: int, deadline: float) -> None:
        try:
            results[i] = worker(i, deadline)
        except BaseException as exc:  # re-raised on the main thread below
            results[i] = exc

    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=target, args=(i, start + seconds), name=f"bench-client-{i}", daemon=True
        )
        for i in range(connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    ops: List[Op] = []
    for r in results:
        if isinstance(r, BaseException):
            raise r
        ops.extend(r)
    return ops, elapsed
