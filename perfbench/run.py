"""The repository benchmark: one command, four workloads, two metric sets.

Run from the repository root::

    python3 perfbench/run.py --workload wire-cold --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (it repeats the timed run untraced, then replays the same
requests layer by layer in process).  Metric names and units come from
``BENCHMARK.json``; ``perfbench/README.md`` says why each workload and
metric exists.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every response is
checked against a reference coloring computed outside the timed window;
a failed check makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Dict, List

ROOT = Path.cwd()
BUILD = Path(".bench_build") / "perfbench"

WORKLOADS = ("wire-cold", "wire-hot", "mesh-cold", "paper-inproc")
SETUP_BOOTS = 5
"""Server boots per run; ``setup_s`` is their median."""
HOT_RATE_CAP = 300.0
"""Ops per second the pre-built ``wire-hot`` plan is sized for.  A
server faster than this ends its window early (``samples.*`` shows it).
Cold streams are endless: each request is built from its index."""
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
"""Client connections of the socket workloads: 2, capped at the CPU count."""
WARMUP_REQUESTS = 8
REPLAY_PER_CLASS = 40
"""Requests per size class replayed by the traced run."""
MAX_SOCKET_PATH = 100
PAPER_LAYERS = ("hw.", "layout.", "graph.load_s", "graph.preprocess_s",
                "kernels.color_ms.paper", "model_cycles", "sim_edges_per_s")
"""Per-layer metrics only ``paper-inproc`` produces."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the repository root (needs src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # SIGTERM unwinds like an exception, so every server this run
    # started is stopped by the ``finally`` blocks on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    BUILD.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str((BUILD.parent / "native").resolve())
    sys.path.insert(0, str(ROOT / "src"))

    try:
        result = run(args, spec)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


def run(args, spec) -> dict:
    host = host_context()
    print("host: " + json.dumps(host))
    if args.workload == "paper-inproc":
        metrics, checks = run_paper(args)
    else:
        metrics, checks = run_wire(args, host)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        # Layers of the other kind of workload are not run here: they read 0.
        paper = args.workload == "paper-inproc"
        metrics = {
            **{m["name"]: 0.0 for m in wanted if m["name"].startswith(PAPER_LAYERS) != paper},
            **metrics,
        }
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    bad = [m["name"] for m in wanted if not math.isfinite(metrics[m["name"]])]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    return {
        "correct": checks["failed"] == 0 and not checks["problems"],
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def host_context() -> Dict[str, object]:
    """CPUs, interpreter, NumPy, native kernel backend and commit."""
    import numpy as np
    from repro import kernels

    caps = kernels.capabilities()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "native_backend": caps.get("native_backend"),
        "native_reason": caps.get("native_reason"),
        "git_sha": sha,
        "calibration_ms": calibration_ms(),
    }


def calibration_ms() -> float:
    """Median time of a fixed CPU and memory task (sort 2M int64s).

    It does not touch the program.  It shows how fast the host was
    during this run, so a slow run can be told apart from a slow change.
    """
    import time

    import numpy as np

    data = np.random.default_rng(0).integers(0, 2**62, size=2_000_000)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(data)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) * 1e3


# ----------------------------------------------------------------------
# Wire workloads
# ----------------------------------------------------------------------
def server_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # Mesh worker sockets live under TMPDIR; keep them in the checkout
    # unless that would overflow the Unix socket path limit.
    tmp = (BUILD.parent / "tmp").resolve()
    if len(str(tmp)) + len("/repro-mesh-xxxxxxxx/w0.sock") <= MAX_SOCKET_PATH:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def run_wire(args, host) -> tuple:
    import numpy as np

    import wire
    import workloads

    hot = args.workload == "wire-hot"
    plan = None
    if hot:
        plan = workloads.hot_plan(
            args.seed, CONNECTIONS, math.ceil(HOT_RATE_CAP * args.seconds / CONNECTIONS)
        )

    def request(index: int):
        return plan.catalog[index] if hot else workloads.cold_request(args.seed, index)

    # Warm-up: requests from a separate stream, plus on wire-hot one
    # request per catalog graph, so the window sees the hot workload's
    # steady state rather than 24 first-touch cache misses.
    warmup = [workloads.cold_request(args.seed, i, stream=1) for i in range(WARMUP_REQUESTS)]
    if hot:
        warmup += plan.catalog

    run_dir = BUILD / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = server_env()
    workers = 2 if args.workload == "mesh-cold" else 1
    boots: List[float] = []
    server = None
    try:
        for _ in range(SETUP_BOOTS):
            if server is not None:
                server.stop()
            server = wire.Server(ROOT, run_dir, env, workers)
            boots.append(server.boot_s)
        warm = wire.cold_loop(server, warmup.__getitem__, float("inf"), 1, len(warmup))
        with server.client("bench-status") as probe:
            before = counters(probe.status())
            if hot:
                loop = wire.hot_loop(server, plan, args.seconds, CONNECTIONS)
            else:
                loop = wire.cold_loop(server, request, args.seconds, CONNECTIONS)
            after = counters(probe.status())
        peak_rss = wire.peak_rss_mb(server.proc.pid)
    finally:
        shutdown = server.stop() if server is not None else {}
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = check_wire(
        [(op, warmup[op.key]) for op in warm.ops]
        + [(op, request(op.key)) for op in loop.ops if op.kind != "apply"],
        loop, before, after, cold=not hot,
    )
    ok = [op for op in loop.ops if op.error is None]
    lat = {
        kind: np.array([op.latency_s * 1e3 for op in ok if op.kind == kind])
        for kind in ("small", "large", "apply")
    }
    metrics: Dict[str, float] = {
        "setup_s": float(np.median(boots)),
        "ops_per_s": len(ok) / loop.elapsed_s,
        "peak_rss_mb": peak_rss,
        "color_edges_per_s": sum(op.edges for op in ok) / loop.elapsed_s,
    }
    for kind in ("small", "large"):
        metrics[f"{kind}_p50_ms"] = percentile(lat[kind], 50)
        metrics[f"{kind}_p95_ms"] = percentile(lat[kind], 95)
    if args.trace:
        metrics.update(wire_layers(args, loop, lat, before, after, shutdown, checks))
        metrics.update(traced_replay(args, loop, lat, host, plan, request))
    return metrics, checks


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def counters(status: dict) -> Dict[str, float]:
    """Flat service counters from a single-server or mesh ``status``."""
    if status.get("mode") == "mesh":
        snaps = [w for w in status["workers"].values() if "jobs" in w]
        per_worker = [float(w["jobs"]["submitted"]) for w in snaps]
        placement = status["placement"]
        extra = {"spills": float(placement["spilled"])}
    else:
        snaps = [status]
        per_worker = [float(status["jobs"]["submitted"])]
        extra = {"spills": 0.0}

    def total(path) -> float:
        out = 0.0
        for snap in snaps:
            node = snap
            for key in path:
                node = node[key]
            out += float(node)
        return out

    return {
        "cache_hits": total(("cache", "hits")),
        "cache_misses": total(("cache", "misses")),
        "shed": total(("jobs", "shed")),
        "retries": total(("jobs", "retries")),
        "degraded": total(("jobs", "degraded")),
        "batches": total(("batching", "batches")),
        "fallbacks": total(("routing", "fallbacks")),
        "stats_hits": total(("routing", "stats_cache", "hits")),
        "stats_misses": total(("routing", "stats_cache", "misses")),
        "per_worker": per_worker,
        **extra,
    }


def check_wire(color_ops, loop, before, after, *, cold: bool) -> dict:
    """Byte parity, properness, session mirrors and counter agreement.

    ``color_ops`` pairs every color op (warm-up included) with its
    request, rebuilt from the seed; references are computed here,
    after the timed window, and never inside it.
    """
    import numpy as np

    from workloads import proper

    failed = sum(op.error is not None for op in loop.ops if op.kind == "apply")
    problems: List[str] = []
    for op, request in color_ops:
        if op.error is not None:
            failed += 1
            continue
        colors = np.asarray(op.result.colors)
        if not (np.array_equal(colors, request.reference) and proper(request.graph, colors)):
            failed += 1
    for i, (mirror_ok, verify_ok) in enumerate(loop.sessions):
        if not mirror_ok:
            problems.append(f"session {i}: client mirror differs from session colors")
        if not verify_ok:
            problems.append(f"session {i}: session.verify failed")
    hits = after["cache_hits"] - before["cache_hits"]
    seen = sum(1 for op in loop.ops if op.error is None and op.kind != "apply"
               and op.result.cache_hit)
    if hits != seen:
        problems.append(f"status counts {hits:.0f} cache hits, clients saw {seen}")
    if cold and hits:
        problems.append(f"cold workload hit the result cache {hits:.0f} times")
    if not loop.ops:
        problems.append("no operation completed in the window")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = len(color_ops) + sum(op.kind == "apply" for op in loop.ops)
    return {"attempted": max(1, attempted), "failed": failed, "problems": problems}


def wire_layers(args, loop, lat, before, after, shutdown, checks) -> Dict[str, float]:
    """Per-layer figures from the untraced run: responses and ``status``."""
    import numpy as np

    ok = [op for op in loop.ops if op.error is None]
    colors = [op for op in ok if op.kind != "apply"]
    applies = [op.result for op in ok if op.kind == "apply"]
    delta = {k: after[k] - before[k] for k in after if k != "per_worker"}
    out: Dict[str, float] = {}
    for cls in ("small", "large"):
        mine = [op for op in colors if op.kind == cls]
        outside = [op.latency_s - op.result.timings.get("total", 0.0) for op in mine]
        out[f"protocol.outside_service_p50_ms.{cls}"] = percentile(outside, 50) * 1e3
        out[f"mesh.outside_worker_p50_ms.{cls}"] = (
            out[f"protocol.outside_service_p50_ms.{cls}"]
            if args.workload == "mesh-cold" else 0.0
        )
        out[f"queue.wait_p50_ms.{cls}"] = percentile(
            [op.result.timings.get("queue", 0.0) for op in mine], 50) * 1e3
        out[f"execution.execute_p50_ms.{cls}"] = percentile(
            [op.result.timings.get("execute", 0.0) for op in mine
             if not op.result.cache_hit], 50) * 1e3
        out[f"samples.{cls}"] = float(len(mine))
    batched = [op.result.batched for op in colors if op.result.batched > 0]
    stats_total = delta["stats_hits"] + delta["stats_misses"]
    submitted = [a - b for a, b in zip(after["per_worker"], before["per_worker"])]
    out.update({
        "queue.shed": delta["shed"],
        "router.microbatch_share": (
            sum(op.result.route.startswith("batch") for op in colors) / max(1, len(colors))
        ),
        "router.fallback": delta["fallbacks"],
        "router.stats_cache_hit_ratio": delta["stats_hits"] / stats_total if stats_total else 0.0,
        "batcher.jobs_per_batch": float(np.mean(batched)) if batched else 0.0,
        "batcher.batches": delta["batches"],
        "cache.hit_ratio": sum(op.result.cache_hit for op in colors) / max(1, len(colors)),
        "cache.invalidations": float(sum(a.cache_invalidated for a in applies)),
        "executor.retries": delta["retries"],
        "executor.degraded": delta["degraded"],
        "incremental.repair_rounds": float(sum(a.repair_rounds for a in applies)),
        "sessions.full_recolors": float(sum(a.mode == "full" for a in applies)),
        "apply_p50_ms": percentile(lat["apply"], 50),
        "apply_p95_ms": percentile(lat["apply"], 95),
        "samples.apply": float(len(lat["apply"])),
        "placement.max_worker_share": max(submitted) / max(1.0, sum(submitted)),
        "placement.spills": delta["spills"],
        "error_rate": checks["failed"] / checks["attempted"],
    })
    out.update(shutdown)
    return out


def traced_replay(args, loop, lat, host, plan, request) -> Dict[str, float]:
    """Replay the timed run's requests layer by layer; write the spans."""
    import numpy as np

    from repro.coloring.incremental import IncrementalColoring

    import spans as tracing

    tracer = tracing.Tracer()
    replay = tracing.Replay(tracer)
    taken = {"small": 0, "large": 0}
    for op in loop.ops:
        if op.error is None and op.kind in taken and taken[op.kind] < REPLAY_PER_CLASS:
            taken[op.kind] += 1
            sent = request(op.key)
            replay.color(op.kind, sent.graph, sent.reference, op.result.cache_hit)
    if plan is not None:
        for session in plan.sessions:
            inc = IncrementalColoring.from_graph(session.graph, colors=session.reference)
            for adds, removes in session.batches[:REPLAY_PER_CLASS]:
                replay.apply(inc, adds, removes)
            inc.validate()

    table = tracing.layer_table(tracer)
    out: Dict[str, float] = {"incremental.apply_ms": table.get("apply", {}).get(
        "incremental.apply_ms", 0.0)}
    print(f"traced replay ({args.workload}, seed {args.seed}): p50 self time, ms")
    for cls in ("small", "large"):
        layers = table.get(cls, {})
        attributed = 0.0
        for name in tracing.LAYERS:
            value = layers.get(name, 0.0)
            out[f"{name}.{cls}"] = value
            attributed += value
        rtt = percentile(lat[cls], 50)
        out[f"trace.coverage.{cls}"] = attributed / rtt if rtt else 0.0
        out[f"trace.unattributed_ms.{cls}"] = rtt - attributed
        out[f"protocol.request_bytes.{cls}"] = float(
            np.median(replay.request_bytes[cls])) if replay.request_bytes[cls] else 0.0
        print(f"  {cls:5s} " + "  ".join(
            f"{name}={layers.get(name, 0.0):.3f}" for name in tracing.LAYERS)
            + f"  replay-gap={layers.get('request', 0.0):.3f}"
            + f"  | round trip p50={rtt:.3f} coverage={out[f'trace.coverage.{cls}']:.2f}"
            + f" unattributed={out[f'trace.unattributed_ms.{cls}']:.3f}")
    if replay.mismatches:
        raise RuntimeError(f"traced replay: {replay.mismatches} colorings differ")
    path = BUILD / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({"host": host, "spans": tracer.to_json()}))
    print(f"  spans written to {path}")
    return out


# ----------------------------------------------------------------------
# Library and accelerator model, in process
# ----------------------------------------------------------------------
def run_paper(args) -> tuple:
    import numpy as np

    import paper

    graphs, references, cells = paper.setup(args.seed)
    result = paper.run(graphs, references, cells, args.seconds)
    # One sample per pass: the three graphs (or four cells) together.
    # Per-call samples would mix one latency mode per graph, and the
    # median of an even mix of modes falls in a gap between them.
    small = np.array([p["color_s"] * 1e3 for p in result.passes])
    large = np.array([p["all_sim_s"] * 1e3 for p in result.passes])
    color_s = sum(dt for _, dt, _ in result.color_ops)
    metrics: Dict[str, float] = {
        "setup_s": float(np.median([pg.load_s + pg.preprocess_s for pg in graphs])),
        "ops_per_s": (len(result.color_ops) + len(result.sim_ops)) / result.elapsed_s,
        "small_p50_ms": percentile(small, 50),
        "small_p95_ms": percentile(small, 95),
        "large_p50_ms": percentile(large, 50),
        "large_p95_ms": percentile(large, 95),
        "peak_rss_mb": paper.own_peak_rss_mb(),
        "color_edges_per_s": sum(m for _, _, m in result.color_ops) / color_s,
    }
    problems = [] if result.stats_repeat else ["AcceleratorStats differ across passes"]
    checks = {"attempted": result.attempted, "failed": result.failed, "problems": problems}
    if args.trace:
        metrics.update(paper.layer_metrics(result, graphs))
        metrics["samples.small"] = float(small.size)
        metrics["samples.large"] = float(large.size)
        metrics["error_rate"] = result.failed / max(1, result.attempted)
    return metrics, checks


if __name__ == "__main__":
    sys.exit(main())
