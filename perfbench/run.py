#!/usr/bin/env python3
"""End-to-end benchmark of htmpll.

Builds the harness (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, then runs one workload:

  python3 perfbench/run.py --workload fd_design --seed 1 --seconds 45 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "htmpll_perfbench")
WORKLOADS = ("fd_design", "probe_verify", "mc_ensemble")

# Set-up samples per run: this many setup-only processes plus the timed
# width-1 process.
SETUP_ONLY_RUNS = 6
# Share of --seconds given to the width-1 process; the rest goes to
# width N.
WIDTH1_SHARE = 0.6
# Per-layer metrics measured where the pool actually has workers.
PARALLEL_AT_WIDTH_N = (
    "parallel.pool_utilization",
    "parallel.pool_wait_ms",
    "parallel.jobs",
    "parallel.inline_jobs",
    "parallel.cpu_per_wall",
    "parallel.self_ms",
)
# Unit of every per-layer metric the harness reports.
LAYER_UNITS = {
    "core.model_build_ms": "ms",
    "core.grid_ns_per_point": "ns",
    "core.plan_grid_points": "count",
    "core.lambda_evals": "count",
    "core.scalar_lambda_frac": "1",
    "core.poles_ms": "ms",
    "core.pole_newton_iters": "count",
    "core.margins_ms": "ms",
    "core.self_ms": "ms",
    "noise.psd_grid_ms": "ms",
    "noise.fold_terms": "count",
    "noise.ns_per_fold_term": "ns",
    "noise.self_ms": "ms",
    "design.map_ms": "ms",
    "design.jitter_opt_ms": "ms",
    "design.self_ms": "ms",
    "linalg.simd_bailouts": "count",
    "linalg.eig_factorizations": "count",
    "linalg.expm_evals": "count",
    "timedomain.probe_point_ms": "ms",
    "timedomain.mc_member_ms": "ms",
    "timedomain.acq_ms": "ms",
    "timedomain.step_batch_ms": "ms",
    "timedomain.sim_periods": "count",
    "timedomain.pfd_events": "count",
    "timedomain.propagator_lookups": "count",
    "timedomain.sim_periods_per_s": "1/s",
    "timedomain.ns_per_pfd_event": "ns",
    "timedomain.propagator_hit_rate": "1",
    "timedomain.spectral_builds": "count",
    "timedomain.pade_fallbacks": "count",
    "timedomain.ensemble_batched_frac": "1",
    "timedomain.ensemble_store_miss_rate": "1",
    "timedomain.self_ms": "ms",
    "parallel.pool_utilization": "1",
    "parallel.pool_wait_ms": "ms",
    "parallel.jobs": "count",
    "parallel.inline_jobs": "count",
    "parallel.cpu_per_wall": "1",
    "parallel.self_ms": "ms",
    "obs.trace_overhead_frac": "1",
    "obs.spans_dropped": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found; run from a full "
            "checkout")
        sys.exit(3)
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        sys.exit(3)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def child_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HTMPLL_")}
    env["HTMPLL_THREADS"] = str(threads)
    return env


def one_cpu():
    """Confines the calling (child) process to one CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def harness(args, threads):
    """Runs the harness and returns its JSON record (last stdout line)."""
    proc = subprocess.run([BINARY] + args, env=child_env(threads),
                          stdout=subprocess.PIPE, text=True,
                          preexec_fn=one_cpu)
    if proc.returncode != 0:
        raise RuntimeError("harness %s exited with %d"
                           % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workload_args(name, seed, mode, seconds):
    return ["--workload", name, "--seed", str(seed), "--mode", mode,
            "--seconds", "%.3f" % seconds]


def percentile(values, q):
    """Nearest-rank percentile: sorted[ceil(q n) - 1]."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[rank - 1]


def accuracy_digits(max_rel_err):
    """-log10 of the worst relative error, capped at 17 digits."""
    return -math.log10(max(max_rel_err, 1e-17))


def metric(value, unit):
    return {"value": value, "unit": unit}


def verdict(records, reference_hash):
    """(attempted, failed, problems) over harness records of one seed."""
    attempted = sum(r.get("passes", 0) + 1 for r in records)
    failed = sum(r.get("failed", 0) + (0 if r["warmup_ok"] else 1)
                 for r in records)
    problems = []
    for r in records:
        if not r["warmup_ok"]:
            problems.append("width %d warm-up: %s"
                            % (r["width"], r["warmup_failure"]))
        if r.get("failed", 0):
            problems.append("width %d: %s" % (r["width"], r["failure"]))
        if r.get("hash_mismatches", 0):
            problems.append("width %d: %d passes hashed differently"
                            % (r["width"], r["hash_mismatches"]))
        if r["hash"] != reference_hash:
            problems.append("width %d output hash %s differs from %s"
                            % (r["width"], r["hash"], reference_hash))
    return attempted, failed, problems


def run_end_to_end(name, seed, seconds, width_n):
    setups = [harness(workload_args(name, seed, "setup", 0), 1)
              for _ in range(SETUP_ONLY_RUNS)]
    w1 = harness(workload_args(name, seed, "time", WIDTH1_SHARE * seconds), 1)
    wn = harness(workload_args(name, seed, "time",
                               (1.0 - WIDTH1_SHARE) * seconds), width_n)
    records = setups + [w1, wn]
    attempted, failed, problems = verdict(records, w1["hash"])
    max_rel_err = max(w1["max_rel_err"], wn["max_rel_err"])
    ms = w1["pass_ms"]
    if len(ms) < 100:
        log("perfbench: only %d width-1 passes; p90 has fewer than 10 "
            "samples beyond it" % len(ms))
    metrics = {
        "setup_s": metric(statistics.median(
            [r["setup_s"] for r in setups + [w1]]), "s"),
        "pass_ms_p50": metric(statistics.median(ms), "ms"),
        "pass_ms_p50_wN": metric(statistics.median(wn["pass_ms"]), "ms"),
        "accuracy_digits": metric(accuracy_digits(max_rel_err), "digits"),
        "pass_ok_frac": metric((attempted - failed) / attempted, "1"),
        "peak_rss_mb": metric(w1["peak_rss_mb"], "MiB"),
    }
    detail = {"width_1_passes": len(ms), "width_n_passes": len(wn["pass_ms"]),
              "width_n": width_n, "failed_frac": failed / attempted,
              "max_rel_err": max_rel_err,
              "pass_ms_p90": percentile(ms, 0.9),
              "raw_setup_s": w1["raw_setup_s"],
              "raw_pass_ms_p50": statistics.median(w1["raw_pass_ms"]),
              "raw_pass_ms_p50_wN": statistics.median(wn["raw_pass_ms"]),
              "hash": w1["hash"]}
    return attempted, failed, problems, metrics, detail


def run_traced(name, seed, seconds, width_n):
    # The harness clears the span rings after every traced pass; the
    # default ring size holds one pass (obs.spans_dropped reports if not).
    w1 = harness(workload_args(name, seed, "trace", WIDTH1_SHARE * seconds),
                 1)
    wn = harness(workload_args(name, seed, "trace",
                               (1.0 - WIDTH1_SHARE) * seconds), width_n)
    attempted, failed, problems = verdict([w1, wn], w1["hash"])
    layers = dict(w1["layers"])
    for key in PARALLEL_AT_WIDTH_N:
        layers[key] = wn["layers"][key]
    metrics = {key: metric(value, LAYER_UNITS[key])
               for key, value in layers.items()}
    detail = {"width_1_traced_passes": len(w1["traced_pass_ms"]),
              "width_n_traced_passes": len(wn["traced_pass_ms"]),
              "width_n": width_n, "hash": w1["hash"]}
    return attempted, failed, problems, metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    width_n = min(os.cpu_count() or 1, 4)
    host = json.loads(subprocess.run(
        [BINARY, "--host"], env=child_env(1), stdout=subprocess.PIPE,
        text=True, check=True).stdout.strip().splitlines()[-1])

    started = time.monotonic()
    runner = run_traced if opts.trace else run_end_to_end
    attempted, failed, problems, metrics, detail = runner(
        opts.workload, opts.seed, opts.seconds, width_n)
    detail["wall_s"] = time.monotonic() - started
    for p in problems:
        log("perfbench: CHECK FAILED: " + p)

    print(json.dumps({"host": host, "workload": opts.workload,
                      "seed": opts.seed, "trace": opts.trace,
                      "detail": detail}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
