"""One benchmark process: a single closed-loop client running one workload.

Started by ``run.py`` as a fresh interpreter with ``PYTHONPATH`` pointing
at the checkout's ``src`` and BLAS threads pinned to 1.  Modes:

* ``setup`` -- import, generate inputs, run one untimed warm-up task, report
  the set-up time and exit;
* ``run``   -- set up, then run whole cycles of tasks for about ``--seconds``,
  timing each task between two yardstick timings (see yardstick.py) and
  checking its output untimed;
* ``trace`` -- like ``run``, but each task runs twice, once plainly and once
  with the tracer's wrappers installed (order alternating), giving
  per-layer figures and the tracing overhead.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from checks import CheckFailed, Health  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import IN_PROCESS  # noqa: E402


def corrupt_transfer() -> None:
    """Self-test: perturb every transfer matrix the transfer module hands out."""
    import nwaybs
    from nwaybs import fitting, oracle, propagation, quantum, transfer

    for name in ("ideal_transfer", "general_transfer", "lossy_transfer"):
        original = getattr(transfer, name)

        def perturbed(*args, _original=original, **kwargs):
            tm = _original(*args, **kwargs)
            entries = tm.entries.copy()
            entries[0, 0] += 1e-3
            return type(tm)(entries=entries, phi=tm.phi, lossy_scale=tm.lossy_scale)

        for mod in (nwaybs, transfer, quantum, fitting, oracle, propagation):
            if getattr(mod, name, None) is original:
                setattr(mod, name, perturbed)


def make_workload(name: str, seed: int, corrupt: str | None):
    if name == "cli":
        from cliload import Cli

        return Cli(seed, ROOT, bad_flag=corrupt == "exit")
    return IN_PROCESS[name](seed)


def run_timed(task) -> tuple[float, object, Exception | None]:
    """Time ``task.run``; a raising task is a failed task, not a crash."""
    t0 = time.perf_counter()
    try:
        out = task.run()
    except Exception as exc:
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def run_traced(task, tracer: Tracer, workload, task_id: int):
    """``run_timed`` with the tracer's wrappers installed for just this task."""
    tracer.task_id = task_id
    tracer.install()
    workload.tracer = tracer
    try:
        return run_timed(task)
    finally:
        tracer.uninstall()
        workload.tracer = None


def check_output(task, out, error, health: Health, failures: list) -> bool:
    """Check a task's output, untimed and untraced; record why it failed."""
    if error is not None:
        failures.append(f"{task.shape}: raised {type(error).__name__}: {error}"[:300])
        return False
    try:
        task.check(out, health)
    except CheckFailed as exc:
        failures.append(f"{task.shape}: {exc}"[:300])
        return False
    except Exception as exc:  # a check that cannot read the output also fails it
        failures.append(f"{task.shape}: unreadable output ({type(exc).__name__}: {exc})"[:300])
        return False
    return True


def per_layer(tracer: Tracer, cycles: int, health: Health, plain_s: float, traced_s: float) -> dict:
    """Per-layer figures, per cycle of the workload's task mix."""
    totals = tracer.layer_totals()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = totals[layer]["calls"] / cycles
        out[f"{layer}.self_s"] = totals[layer]["self_s"] / cycles
    for key in ("quantum.points", "propagation.rk4_steps", "fitting.nfev_total"):
        out[key] = tracer.counts.get(key, 0) / cycles

    def per(num: float, den: float, scale: float = 1e6) -> float:
        return num / den * scale if den else 0.0

    out["transfer.us_per_call"] = per(out["transfer.self_s"], out["transfer.calls"])
    out["quantum.us_per_point"] = per(out["quantum.self_s"], out["quantum.points"])
    out["propagation.us_per_step"] = per(out["propagation.self_s"], out["propagation.rk4_steps"])
    out["fitting.converged_frac"] = per(tracer.fits_converged, tracer.fits, 1.0)
    for key in ("transfer.unitarity_residual_max", "oracle.symplectic_residual_max",
                "oracle.fock_tail_max"):
        out[key] = health.values.get(key, 0.0)
    layer_self = sum(totals[layer]["self_s"] for layer in LAYERS)
    out["trace.wall_s"] = traced_s / cycles
    out["bench.self_s"] = (traced_s - layer_self) / cycles
    out["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(list(IN_PROCESS) + ["cli"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before starting this process")
    ap.add_argument("--corrupt", choices=("transfer", "exit"), default=None)
    ap.add_argument("--spans", default=None, help="write the trace spans here as JSON lines")
    args = ap.parse_args()

    import nwaybs

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(nwaybs.__file__).startswith(src):
        raise SystemExit(f"nwaybs imported from {nwaybs.__file__}, not from {src}")
    if args.corrupt == "transfer":
        corrupt_transfer()
    workload = make_workload(args.workload, args.seed, args.corrupt)
    try:
        return measure(workload, args)
    finally:
        if hasattr(workload, "close"):
            workload.close()


def measure(workload, args) -> int:
    health = Health()
    failures: list[str] = []
    warm = workload.make_task(workload.shapes()[0])
    _, out, error = run_timed(warm)
    check_output(warm, out, error, health, failures)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    failures.clear()
    health = Health()

    tracer = Tracer() if args.mode == "trace" else None
    latencies, scales, ok_flags = [], [], []
    after = None
    plain_s = traced_s = 0.0
    cycles = 0
    start = time.perf_counter()
    while True:
        for task in workload.cycle():
            if tracer is None:
                # the yardstick timing after a task is also the one before the next
                before = after if after is not None else workload.time_yardstick()
                passes = [run_timed(task)]
                after = workload.time_yardstick()
                scales.append(workload.yardstick_nominal_s / (0.5 * (before + after)))
            else:
                # the same task untraced and traced, in alternating order
                passes = []
                for traced in ((False, True) if len(latencies) % 4 == 0 else (True, False)):
                    dt, out, error = (run_traced(task, tracer, workload, len(latencies))
                                      if traced else run_timed(task))
                    if traced:
                        traced_s += dt
                    else:
                        plain_s += dt
                    passes.append((dt, out, error))
            for dt, out, error in passes:
                latencies.append(dt)
                ok_flags.append(check_output(task, out, error, health, failures))
        cycles += 1
        # start another cycle only while at least half of one still fits, so
        # runs end near --seconds even when a cycle is long (cli: about 15 s)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= args.seconds:
            break

    run_failures = workload.finish()
    ok_lat = [dt for dt, ok in zip(latencies, ok_flags) if ok]
    ok_scaled = [dt * sc for dt, sc, ok in zip(latencies, scales, ok_flags) if ok]
    result = {
        "workload": workload.name,
        "setup_s": setup_s,
        "cycles": cycles,
        "attempted": len(latencies),
        "failed": ok_flags.count(False),
        "failures": failures[:20],
        "run_failures": run_failures,
        "busy_s": sum(latencies),
        "scaled_busy_s": sum(dt * sc for dt, sc in zip(latencies, scales)),
        "ok_latencies_s": ok_lat,
        "ok_scaled_latencies_s": ok_scaled,
        "peak_rss_mb": peak_rss_mb(workload.name),
        "health": health.values,
        "versions": {"numpy": np.__version__, "scipy": sys.modules["scipy"].__version__},
    }
    if hasattr(workload, "probe_defects"):
        result["known_defects"] = workload.probe_defects()
    if tracer is not None:
        from cliload import import_profile

        result["per_layer"] = per_layer(tracer, cycles, health, plain_s, traced_s)
        result["per_layer"].update(import_profile(ROOT))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of this process, or of its largest child for ``cli``."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
