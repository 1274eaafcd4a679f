"""stratgrid benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see workloads.py): sweep-serial,
sweep-parallel, checks.  Each is a closed loop with one client: a pass runs
every input of the workload once, one operation after the other, in a fresh
interpreter (bench/one_pass.py), so a cache that outlives one call shows in
setup_s or peak_rss_mb rather than as a gain.  Passes repeat until S seconds
have gone by; every metric is the median over the passes.

--trace 0 prints the end-to-end metrics.  Times are in normalized seconds
(reference.py): a pass times a fixed reference kernel every 0.2 s between its
operations, and rescales each operation by the kernel runs around it to a host
on which the kernel takes reference.NOMINAL_S.  On sweep-parallel a kernel run
is two copies at once, one per worker.  The raw times are printed in the
samples record.
  setup_s          launch of the interpreter to the first timed call:
                   importing stratgrid and building the inputs, normalized by
                   two kernel runs right after it (median over at least
                   SETUP_SAMPLES launches)
  norm_wall_s      wall time of one pass, the kernel runs left out
  norm_cpu_s       CPU time of the pass process and its pool workers, the
                   kernel runs left out
  norm_pairs_per_s (h, d) pairs checked by the pass's sweeps per norm_wall_s
  peak_rss_mb      largest peak resident set of the pass process and its
                   workers
  norm_op_p50_ms, norm_op_p99_ms
                   nearest-rank percentiles of the latency of one operation
                   in a pass: a CLI command on the sweep workloads (4 per
                   pass, so p99 is the slowest command), a region query on
                   checks (4524 per pass, so 45 samples lie beyond p99)
  ops_ok_ratio     share of attempted operations that returned, exited 0 and
                   matched the expected output (and, on sweep-parallel,
                   matched the serial report byte for byte)

--trace 1 prints per-layer metrics.  Whatever the workload, a traced run
takes the inputs of all three workloads (made from the seed), so that every
layer is measured in every traced run.  A round is three passes, sweeps at
one worker unless noted: (a) with only the cli -> hecke calls timed, (b) with
every public cross-module call of stratgrid wrapped in a span (tracing.py),
(c) the sweeps alone at two workers with the cli -> hecke calls timed; their
reports must equal those of (a) byte for byte.  Layer times come from (b);
hecke.parallel_efficiency is sweep time (a) over twice sweep time (c);
hecke.child_cpu_s is the pool workers' CPU time in (c); trace.overhead_s is
wall (b) minus wall (a).

Per-layer times are raw seconds.

Before the result line the benchmark prints the environment (nproc, CPU
affinity, Python version, load average), the query mix of checks, and each
metric's quartiles and sample count, with the raw times (raw_*) and the
kernel's time per pass (ref_s).  The last line of stdout is the result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    """Starts passes in fresh interpreters and tallies their operations."""

    def __init__(self, workload: str, seed: int, work_dir: str, deadline: float):
        self.workload, self.seed = workload, seed
        self.work_dir, self.deadline = work_dir, deadline
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []  # the first few are printed
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # Installed code runs from cached bytecode; let the warm-up launch
        # write it, so that setup_s does not time compiling the sources.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def out_dir(self, name: str) -> str:
        path = os.path.join(self.work_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def launch(self, out_dir: str, workers: int, trace="none", sweeps_only=False, setup_only=False) -> dict:
        argv = [
            sys.executable, os.path.join(HERE, "one_pass.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--workers", str(workers), "--trace", trace, "--out-dir", out_dir,
        ]
        if sweeps_only:
            argv.append("--sweeps-only")
        if setup_only:
            argv.append("--setup-only")
        launched = time.monotonic()
        argv += ["--launched", repr(launched)]
        # A session of its own, so a timeout can stop the pool workers too.
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - launched))
        except BaseException as exc:  # a timeout, or this run being stopped
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("a pass ran past the benchmark's deadline") from None
            raise
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"pass exited {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(lines[-1])
        if not setup_only:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.failures.extend(result["failures"])
        return result

    def compare_reports(self, ref: dict, ref_dir: str, got: dict, got_dir: str) -> None:
        """Byte-compare each report of `got` with the same operation's in `ref`."""
        for name, fname in got["files"].items():
            if name not in ref["files"]:
                continue  # the operation failed in `ref` and is counted there
            with open(os.path.join(ref_dir, fname), "rb") as a, open(os.path.join(got_dir, fname), "rb") as b:
                if a.read() != b.read():
                    self.failed += 1
                    self.failures.append({"op": name, "why": "report differs from the one-worker report"})


def run_passes(runner: Runner, seconds: float, one_round) -> list:
    """Repeat `one_round` until `seconds` have gone by; at least once."""
    start = time.monotonic()
    rounds = []
    while True:
        rounds.append(one_round())
        if time.monotonic() - start >= seconds:
            return rounds


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    parallel = runner.workload == "sweep-parallel"
    workers = wl.PARALLEL_WORKERS if parallel else 1
    ref = ref_dir = None
    if parallel:  # the one-worker reports the parallel ones must equal
        ref_dir = runner.out_dir("serial")
        ref = runner.launch(ref_dir, 1)

    def one_pass():
        out_dir = runner.out_dir("pass")
        res = runner.launch(out_dir, workers)
        if ref is not None:
            runner.compare_reports(ref, ref_dir, res, out_dir)
        return res

    passes = run_passes(runner, seconds, one_pass)
    setups = [{k: p[k] for k in ("setup_s", "norm_setup_s")} for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.launch(runner.out_dir("setup"), workers, setup_only=True))
    samples = {
        "setup_s": [s["norm_setup_s"] for s in setups],
        "norm_wall_s": [p["norm_wall_s"] for p in passes],
        "norm_cpu_s": [p["norm_cpu_s"] for p in passes],
        "norm_pairs_per_s": [p["pairs"] / p["norm_wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "norm_op_p50_ms": [p["norm_op_p50_ms"] for p in passes],
        "norm_op_p99_ms": [p["norm_op_p99_ms"] for p in passes],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["ops_ok_ratio"] = (runner.attempted - runner.failed) / runner.attempted
    # The raw figures the normalized ones rescale, and the kernel's time.
    samples["raw_setup_s"] = [s["setup_s"] for s in setups]
    for k in ("wall_s", "cpu_s", "op_p50_ms", "op_p99_ms"):
        samples[f"raw_{k}"] = [p[k] for p in passes]
    samples["ref_s"] = [statistics.median(p["ref_s"]) for p in passes]
    detail = {k: _describe(v) for k, v in samples.items()}
    detail["latency_samples_per_pass"] = passes[0]["latency_n"]
    return metrics, detail


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    def one_round():
        a_dir, b_dir, c_dir = runner.out_dir("a"), runner.out_dir("b"), runner.out_dir("c")
        a = runner.launch(a_dir, 1, trace="boundary")
        b = runner.launch(b_dir, 1, trace="full")
        c = runner.launch(c_dir, wl.PARALLEL_WORKERS, trace="boundary", sweeps_only=True)
        runner.compare_reports(a, a_dir, c, c_dir)
        return a, b, c

    rounds = run_passes(runner, seconds, one_round)
    samples = {k: [b["layers"][k] for _, b, _ in rounds] for k in rounds[0][1]["layers"]}
    samples["hecke.pairs"] = [b["pairs"] for _, b, _ in rounds]
    samples["hecke.points_in"] = [b["points_in"] for _, b, _ in rounds]
    samples["hecke.grid_points"] = [b["grid_points"] for _, b, _ in rounds]
    samples["hecke.parallel_efficiency"] = [
        a["sweep_s"] / (wl.PARALLEL_WORKERS * c["sweep_s"]) for a, _, c in rounds
    ]
    samples["hecke.child_cpu_s"] = [c["child_cpu_s"] for _, _, c in rounds]
    metrics = {k: _median(v) for k, v in samples.items()}
    metrics["trace.overhead_s"] = statistics.median([b["wall_s"] for _, b, _ in rounds]) - statistics.median(
        [a["wall_s"] for a, _, _ in rounds]
    )
    detail = {k: _describe(v) for k, v in samples.items()}
    return metrics, detail


def _median(values):
    """Median; for counts, a middle sample, so that a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _describe(values) -> dict:
    q1, q2, q3 = stats.quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    return {
        "record": "environment",
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg": list(os.getloadavg()),
    }


def _exit_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser(description="stratgrid benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "stratgrid", "__init__.py")):
        print(f"error: no stratgrid sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # Stopped from outside: unwind, so that the running pass is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    env = environment()
    work_dir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    workload = wl.ALL if args.trace else args.workload
    runner = Runner(workload, args.seed, work_dir, time.monotonic() + RUN_DEADLINE_S)
    try:
        os.makedirs(work_dir)
        # Compile the sources once, so no timed launch pays for it.
        runner.launch(runner.out_dir("warm"), 1, setup_only=True)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:  # another run is using it
            pass

    env["loadavg_end"] = list(os.getloadavg())
    print(json.dumps(env, sort_keys=True))
    if workload in ("checks", wl.ALL):
        print(json.dumps({"record": "query_mix", **wl.input_mix(args.seed, wl.load_expected())}, sort_keys=True))
    print(json.dumps({"record": "samples", "workload": args.workload, "seed": args.seed, **detail}, sort_keys=True))
    if runner.failures:
        print(json.dumps({"record": "failures", "listed": runner.failures[:20]}))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
