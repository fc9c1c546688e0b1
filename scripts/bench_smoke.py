#!/usr/bin/env python
"""Regression smoke over the checked-in ``BENCH_*.json`` baselines.

Runs every gate of :data:`repro.experiments.gates.GATES`, in table order,
and prints one line per gate: its number, name, status (``ok``, ``FAIL``
or ``skip``), the current value and the threshold it is held to.  A gate
that raises (a parity assertion, a missing BENCH file) counts as failed.
No gate stops the ones after it; the exit code is 1 if any gate failed
and 0 otherwise.  Skips — the mesh gate on 1-CPU hosts, the two native
gates without a C compiler — print their reason and do not fail.

Floors, factors and what each gate measures live in
:mod:`repro.experiments.gates`.

Usage:

    python scripts/bench_smoke.py [--repeats 3] [--factor F]

``--factor`` overrides the slack of the two baseline-ratio speedup gates
(kernels and hw, default 2.0 each): the current speedup must reach the
recorded one divided by it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.gates import GATES, run_gate  # noqa: E402


def _fmt(value) -> str:
    if isinstance(value, dict):
        return ", ".join(f"{k} {_fmt(v)}" for k, v in value.items())
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats; the best run counts (default: 3)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=None,
        help="allowed slowdown of the kernels and hw speedups vs their "
             "baselines (default: each gate's own, 2.0)",
    )
    args = parser.parse_args(argv)

    failed = []
    for number, gate in enumerate(GATES, 1):
        try:
            ok, current, threshold = run_gate(
                gate.name, repeats=args.repeats, factor=args.factor
            )
        except Exception as exc:  # a raising gate fails; the rest still run
            ok, current, threshold = False, f"{type(exc).__name__}: {exc}", "-"
        head = f"gate {number:2d} {gate.name:<9}"
        if ok is None:
            print(f"{head} skip  ({current})")
            continue
        print(
            f"{head} {'ok  ' if ok else 'FAIL'}  current {_fmt(current)}; "
            f"threshold {_fmt(threshold)}  [BENCH_{gate.bench}.json]"
        )
        if not ok:
            failed.append(gate.name)
    print(f"FAIL: {', '.join(failed)}" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
