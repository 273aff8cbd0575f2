#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of nwaybs).

    python3 benchmarks/selftest.py [--seed N]

1. BENCHMARK.json has the documented shape.
2. Every workload runs at its smallest size (one cycle), traced and
   untraced, with every listed metric present, finite and in its unit.
3. Deliberately corrupted outputs are counted as failures: a perturbed
   transfer matrix (sweep, verify, calibrate) and a wrong exit code (cli).
4. ``--spans`` writes the trace spans as JSON lines.
5. Without the package sources next to it, the benchmark exits non-zero
   and prints no result.
6. No run leaves files behind in the checkout.

Exits 0 when every check passes.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "verify", "calibrate", "cli")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        problems.append(what)


def run_bench(args: list[str], cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workload names")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names), "metric names")
    check(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]), "metric units")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds within (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s present with the largest bound")


def check_result(result, wanted: list[dict], label: str, positive: bool) -> None:
    check(result is not None, f"{label}: result line printed")
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(m["name"] for m in wanted), f"{label}: exactly the listed metrics")
    for m in wanted:
        got = metrics.get(m["name"])
        ok = (got is not None and got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]) and (got["value"] > 0 or not positive))
        if not ok:
            check(False, f"{label}: metric {m['name']} = {got}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=90210)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    seed = ["--seed", str(args.seed), "--seconds", "1"]

    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc, result = run_bench(["--workload", workload, "--trace", str(trace)] + seed)
            label = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{label}: exit 0 ({proc.stderr.strip()[-300:]})")
            check_result(result, wanted, label, positive=trace == 0)

    corruptions = {"sweep": "transfer", "verify": "transfer", "calibrate": "transfer", "cli": "exit"}
    for workload, kind in corruptions.items():
        proc, result = run_bench(["--workload", workload, "--corrupt", kind] + seed)
        check(proc.returncode == 0 and result is not None and result["failed"] > 0
              and result["correct"] is False,
              f"{workload}: corrupted {kind} counted as failed "
              f"({result and result['failed']} of {result and result['attempted']})")

    spans = os.path.join(ROOT, ".bench_selftest-spans.jsonl")
    try:
        run_bench(["--workload", "verify", "--trace", "1", "--spans", spans] + seed)
        with open(spans, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        check(bool(rows) and set(rows[0]) == {"name", "start", "end", "parent", "task"}
              and any(r["name"].startswith("propagation.") for r in rows),
              f"--spans writes the trace spans ({len(rows)} lines)")
    except (OSError, json.JSONDecodeError) as exc:
        check(False, f"--spans writes the trace spans ({exc})")
    finally:
        if os.path.exists(spans):
            os.remove(spans)

    bare = tempfile.mkdtemp(dir=ROOT, prefix=".bench_selftest-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = run_bench(["--workload", "sweep", "--trace", "0"] + seed, cwd=bare)
        check(proc.returncode != 0 and result is None, "no sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    leftovers = [n for n in os.listdir(ROOT) if n.startswith(".bench_")]
    check(not leftovers, f"no files left behind ({leftovers})")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
