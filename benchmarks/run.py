#!/usr/bin/env python3
"""Layered benchmark for nwaybs.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout.  Workloads: sweep, verify, calibrate, cli
(see benchmarks/README.md).  ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer ones; ``--workload all`` runs every workload
both ways and prints every metric.  Each run prints a readable report, a
``provenance`` line, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics that
BENCHMARK.json lists for the chosen mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from childenv import PIN_THREADS, child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "verify", "calibrate", "cli")
SETUP_SAMPLES = 5  # fresh processes whose set-up times give the median setup_s
WORKER_TIMEOUT_S = 170
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               corrupt: str | None = None, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            corrupt: str | None = None, spans: str | None = None) -> dict:
    """One benchmark run: returns metrics (value, unit) plus what stands behind them."""
    if trace:
        res = run_worker(workload, seed, seconds, "trace", corrupt, spans)
        metrics = {name: value for name, value in res["per_layer"].items()}
        setups = []
    else:
        setups = [run_worker(workload, seed, seconds, "setup", corrupt)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(workload, seed, seconds, "run", corrupt)
        setups.append(res["setup_s"])
        lat, scaled = res["ok_latencies_s"], res["ok_scaled_latencies_s"]
        metrics = {"setup_s": statistics.median(setups)}
        # task timings scaled to nominal machine speed (see yardstick.py); set-up
        # stays raw, as no yardstick reduced its spread
        for prefix, values, busy in (("", scaled, res["scaled_busy_s"]),
                                     ("raw.", lat, res["busy_s"])):
            metrics[prefix + "tasks_per_s"] = len(values) / busy if busy else 0.0
            metrics[prefix + "task_p50_ms"] = percentile(values, 0.5) * 1e3 if values else 0.0
            if len(values) >= P90_MIN_SAMPLES:
                metrics[prefix + "task_p90_ms"] = percentile(values, 0.9) * 1e3
        metrics["failed_frac"] = res["failed"] / res["attempted"]
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        metrics["machine_scale"] = res["scaled_busy_s"] / res["busy_s"]
    res["metrics"] = metrics
    res["setup_samples"] = setups
    res["correct"] = res["failed"] == 0 and not res["run_failures"]
    return res


UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms",
         "failed_frac": "ratio", "peak_rss_mb": "MB", "trace.wall_s": "s",
         "machine_scale": "ratio", "raw.tasks_per_s": "1/s",
         "raw.task_p50_ms": "ms", "raw.task_p90_ms": "ms"}


def metric_units() -> tuple[dict, dict]:
    """(units by metric name, BENCHMARK.json); the report-only metrics included."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = dict(UNITS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    return units, spec


def provenance(res: dict, seed: int, seconds: float, trace: bool) -> dict:
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never a repository above the checkout
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nwaybs")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    n_lat = len(res["ok_latencies_s"])
    return {
        "workload": res["workload"], "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": res["versions"]["numpy"], "scipy": res["versions"]["scipy"],
        "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
        "blas_threads": PIN_THREADS, "cycles": res["cycles"],
        "samples": {"task_p50_ms": n_lat,
                    "task_p90_ms": n_lat if n_lat >= P90_MIN_SAMPLES else 0,
                    "setup_s": len(res["setup_samples"])},
        "load": "closed loop, one client, one process",
    }


def report(res: dict, units: dict) -> None:
    n_lat = len(res["ok_latencies_s"])
    print(f"== {res['workload']}: {res['attempted']} tasks in {res['cycles']} cycles, "
          f"{res['failed']} failed, correct={res['correct']}")
    for name, value in res["metrics"].items():
        note = ""
        if name in ("task_p50_ms", "task_p90_ms", "raw.task_p50_ms", "raw.task_p90_ms"):
            note = f"  (n={n_lat})"
        elif name == "setup_s":
            note = f"  (median of {len(res['setup_samples'])})"
        elif name == "propagation.rk4_steps":
            note = "  (computed from step settings)"
        print(f"   {name:34s} {value:<14.6g} {units.get(name, '')}{note}")
    if "task_p90_ms" not in res["metrics"] and "per_layer" not in res:
        print(f"   {'task_p90_ms':34s} {'n/a':14s} ms  (only {n_lat} tasks; needs "
              f"{P90_MIN_SAMPLES})")
    if "per_layer" in res:
        wall = res["per_layer"]["trace.wall_s"]
        shares = ", ".join(f"{layer} {res['per_layer'][f'{layer}.self_s'] / wall:.1%}"
                           for layer in ("dispersion", "transfer", "propagation", "quantum",
                                         "oracle", "fitting", "cli", "bench")
                           if wall)
        print(f"   traced wall per cycle {wall:.4g} s; self-time shares: {shares}")
    for msg in res["failures"] + res["run_failures"]:
        print(f"   FAILED {msg}")
    for probe in res.get("known_defects", []):
        state = "fixed" if probe["passed"] else f"still fails: {probe['detail']}"
        print(f"   known defect {probe['probe']}: {state}")


def main() -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark for nwaybs.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("transfer", "exit"), default=None,
                    help="self-test only: deliberately corrupt outputs")
    ap.add_argument("--spans", default=None, help="write trace spans to this JSON-lines file")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "nwaybs", "__init__.py")):
        print(f"error: no nwaybs sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    units, spec = metric_units()
    runs = [(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all" \
        else [(args.workload, bool(args.trace))]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in runs:
            res = measure(workload, args.seed, args.seconds, trace, args.corrupt, args.spans)
            report(res, units)
            print("provenance " + json.dumps(provenance(res, args.seed, args.seconds, trace)))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
            if missing:
                raise BenchError(f"{workload}: metrics not produced: {missing}")
            prefix = f"{workload}/" if args.workload == "all" else ""
            for m in wanted:
                summary["metrics"][prefix + m["name"]] = {
                    "value": res["metrics"][m["name"]], "unit": m["unit"]}
            summary["correct"] = summary["correct"] and res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
