#!/usr/bin/env python3
"""Append benchmark reports to a JSONL history and gate regressions.

Usage:
  bench_history.py [--history FILE] [--max-regression FRAC] report.json...

For every report given, the gated metrics (per-bench dotted paths, all
higher-is-better speedups) are extracted and compared against the best
value previously recorded for the same bench+metric in the history file.
A metric that drops below (1 - FRAC) x best-known fails the run (exit 1).
Every run -- passing, failing, or fresh baseline -- appends one record
per report:

  {"bench": ..., "git": ..., "timestamp": ..., "metrics": {...}}

keyed by `git describe` (from the report's .manifest.json sidecar when
present, else the working tree).  A fresh history file is a baseline:
nothing to compare against, exit 0.

Stdlib only; no third-party imports.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

# Gated metrics per bench, as dotted paths into the report JSON.  All are
# speedups: higher is better, and a >FRAC drop vs the best-known value is
# a regression.
GATED_METRICS = {
    "sweep_engine": [
        "baseband_sweep.grid_speedup_vs_pointwise",
        "closed_loop_multiband.speedup",
    ],
    "transient_engine": [
        "spectral_cold_speedup_vs_seed",
    ],
    "bench_kernels": [
        "eval_plan.plan_speedup_vs_scalar",
    ],
    "bench_noise": [
        "output_psd.grid_speedup_vs_pointwise",
    ],
}


def dotted_get(obj, path):
    """Walk a dotted path through nested dicts; None when absent."""
    for key in path.split("."):
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj if isinstance(obj, (int, float)) else None


def bench_name(report):
    return report.get("bench") or report.get("benchmark")


def git_describe(report_path):
    """git id from the manifest sidecar, else the working tree."""
    manifest_path = report_path + ".manifest.json"
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        git = manifest.get("git")
        if isinstance(git, str) and git:
            return git
    except (OSError, ValueError):
        pass
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(report_path)) or ".",
            check=False,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def load_history(path):
    """Best-known value per (bench, metric) over all prior records."""
    best = {}
    if not os.path.exists(path):
        return best
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                print(
                    f"bench_history: warning: {path}:{lineno}: "
                    "unparseable record skipped",
                    file=sys.stderr,
                )
                continue
            bench = rec.get("bench")
            metrics = rec.get("metrics")
            if not isinstance(bench, str) or not isinstance(metrics, dict):
                continue
            for metric, value in metrics.items():
                if not isinstance(value, (int, float)):
                    continue
                key = (bench, metric)
                if key not in best or value > best[key]:
                    best[key] = value
    return best


def main(argv):
    ap = argparse.ArgumentParser(
        description="Append bench reports to a JSONL history and fail on "
        "regressions vs the best-known baseline."
    )
    ap.add_argument(
        "--history",
        default=os.path.join("bench", "history.jsonl"),
        help="history file (JSONL, appended; default bench/history.jsonl)",
    )
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        help="fail when a gated metric drops more than this fraction "
        "below the best-known value (default 0.10)",
    )
    ap.add_argument("reports", nargs="+", help="BENCH_*.json report files")
    args = ap.parse_args(argv)

    best = load_history(args.history)
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )

    failures = []
    records = []
    for report_path in args.reports:
        try:
            with open(report_path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            print(f"bench_history: error: {report_path}: {e}",
                  file=sys.stderr)
            return 2

        bench = bench_name(report)
        if not bench:
            print(
                f"bench_history: error: {report_path}: no 'bench' or "
                "'benchmark' key",
                file=sys.stderr,
            )
            return 2

        metrics = {}
        for path in GATED_METRICS.get(bench, []):
            value = dotted_get(report, path)
            if value is None:
                print(
                    f"bench_history: warning: {report_path}: gated metric "
                    f"'{path}' missing; not recorded",
                    file=sys.stderr,
                )
                continue
            metrics[path] = value
            key = (bench, path)
            if key in best:
                floor = (1.0 - args.max_regression) * best[key]
                verdict = "REGRESSION" if value < floor else "ok"
                print(
                    f"{bench}: {path} = {value:.4g} "
                    f"(best {best[key]:.4g}, floor {floor:.4g}) {verdict}"
                )
                if value < floor:
                    failures.append(
                        f"{bench}: {path} = {value:.4g} is more than "
                        f"{100.0 * args.max_regression:.0f}% below the "
                        f"best-known {best[key]:.4g}"
                    )
            else:
                print(f"{bench}: {path} = {value:.4g} (fresh baseline)")

        records.append(
            {
                "bench": bench,
                "git": git_describe(report_path),
                "timestamp": timestamp,
                "metrics": metrics,
            }
        )

    history_dir = os.path.dirname(args.history)
    if history_dir:
        os.makedirs(history_dir, exist_ok=True)
    with open(args.history, "a", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    print(
        f"bench_history: appended {len(records)} record(s) to {args.history}"
    )

    if failures:
        for failure in failures:
            print(f"bench_history: FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
