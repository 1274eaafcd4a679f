"""One pass over a workload's inputs in a fresh interpreter; run.py starts it.

Imports stratgrid from the checkout's src/, builds the inputs, runs every
operation once, checks each output, and prints one JSON line with the pass's
times, counts and failures.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Operations whose latencies make the op_p50_ms / op_p99_ms distribution.
LATENCY_KIND = {"sweep-serial": "command", "sweep-parallel": "command", "checks": "query", "all": "query"}
MAX_LISTED_FAILURES = 20


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _child_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--trace", choices=("none", "boundary", "full"), default="none")
    ap.add_argument("--sweeps-only", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--launched", type=float, required=True, help="time.monotonic() at launch")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import stratgrid

    if not os.path.abspath(stratgrid.__file__).startswith(SRC + os.sep):
        print(f"error: imported stratgrid from {stratgrid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import reference
    import stats
    import tracing
    import workloads

    tracer = None
    if args.trace != "none":
        tracer = tracing.Tracer()
        tracer.install(None if args.trace == "full" else tracing.SWEEP_BOUNDARY)
    api = tracing.bench_api(tracer if args.trace == "full" else None)
    ops = workloads.build(
        args.workload,
        args.seed,
        api,
        args.out_dir,
        args.workers,
        args.sweeps_only,
        workloads.load_expected(),
    )
    setup_s = time.monotonic() - args.launched
    # Two kernel runs right after set-up give the host's speed for it.
    clock = reference.Clock()
    clock.tick()
    clock.tick()
    setup = {"setup_s": setup_s, "norm_setup_s": setup_s * clock.scale(0)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    latency_kind = LATENCY_KIND[args.workload]
    latencies = []  # (kernel run before the operation, seconds)
    spans = []  # the same for the whole operation, its check included
    failures = []
    reports = []
    files = {}  # op name -> report file, for operations that passed
    clock = reference.Clock(args.workers)
    cpu0, child0 = _cpu_seconds(), _child_cpu_seconds()
    start = time.perf_counter()
    clock.tick()
    for op in ops:
        k = clock.maybe_tick()
        t0 = time.perf_counter()
        try:
            result = op.call()
            dt = time.perf_counter() - t0
            error, sweeps = op.check(result)
        except Exception as exc:  # raised, or left an output the check cannot read
            failures.append({"op": op.name, "why": f"raised {exc!r}"})
            continue
        finally:
            spans.append((k, time.perf_counter() - t0))
        if op.kind == latency_kind:
            latencies.append((k, dt))
        if error is not None:
            failures.append({"op": op.name, "why": error})
        elif op.report_file:
            files[op.name] = op.report_file
        reports.extend(sweeps)
    clock.tick()
    wall_s = time.perf_counter() - start - clock.wall_s
    cpu_s = _cpu_seconds() - cpu0 - clock.cpu_s
    child_cpu_s = _child_cpu_seconds() - child0
    clock.close()
    # Time-weighted mean factor from raw to normalized seconds over the pass.
    busy = sum(dt for _, dt in spans)
    scale = sum(dt * clock.scale(k) for k, dt in spans) / busy if busy > 0 else clock.scale(0)

    pairs = sum(r["pairs_checked"] for r in reports)
    out = {
        **setup,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "norm_wall_s": wall_s * scale,
        "norm_cpu_s": cpu_s * scale,
        "child_cpu_s": child_cpu_s,
        "ref_s": clock.samples,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:MAX_LISTED_FAILURES],
        "pairs": pairs,
        "points_in": sum(r["points_in"] for r in reports),
        "grid_points": sum(r["grid_points"] for r in reports),
        "latency_n": len(latencies),
        "files": files,
    }
    if latencies:
        raw = [dt for _, dt in latencies]
        norm = [dt * clock.scale(k) for k, dt in latencies]
        for q in (50, 99):
            out[f"op_p{q}_ms"] = stats.percentile(raw, q) * 1e3
            out[f"norm_op_p{q}_ms"] = stats.percentile(norm, q) * 1e3
    if tracer is not None:
        tracer.uninstall()
        out["sweep_s"] = tracing.sweep_seconds(tracer.spans)
        if args.trace == "full":
            out["layers"] = tracing.layer_metrics(tracer.spans, pairs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
