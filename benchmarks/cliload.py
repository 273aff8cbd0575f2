"""The ``cli`` workload and the import/start-up profile.

Each task runs one ``python -m nwaybs.cli`` subcommand as a fresh child
process in a private directory under ``.bench_tmp/`` in the checkout, with
``TMPDIR`` pointed at that directory.  Afterwards the directory must hold
only the task's inputs and its declared output; anything else is a leak and
fails the task.  The directory is removed whatever happens.

Known defects of the CLI are probed once per run, outside the timed mix;
they are reported by name so that a fix shows as a probe that passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np
from nwaybs import dispersion, quantum, transfer

from checks import (
    CheckFailed,
    Health,
    check_curve_closed_form,
    check_curve_wick,
    close_abs,
    close_rel,
    expect,
    ideal_matrix,
    pair_amplitude,
    ideal_pq,
)
from childenv import child_env
from workloads import W0, Task, Workload

CHILD_TIMEOUT_S = 120
SCRATCH_DIR = ".bench_tmp"


def read_csv(text: str):
    """(header comment lines, {column name: array}) with numeric columns as floats."""
    comments, columns, rows = [], None, []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    expect(columns is not None and rows, "empty CSV output")
    expect(all(len(r) == len(columns) for r in rows), "ragged CSV rows")
    table = {}
    for k, name in enumerate(columns):
        cells = [r[k] for r in rows]
        try:
            table[name] = np.array([float(c) for c in cells])
        except ValueError:
            table[name] = np.array(cells)
    return comments, table


def read_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


class Cli(Workload):
    """Twelve subcommand runs per cycle, one child process at a time.

    Each child costs about a second, mostly start-up.  The yardstick is a
    child interpreter importing numpy: it tracks start-up and import speed,
    which the in-process kernel does not.
    """

    name = "cli"
    yardstick_nominal_s = 0.23  # measured median on a 2 GHz Xeon VM
    SHAPES = [
        ("transfer", "ideal"), ("transfer", "general"), ("transfer", "lossy"),
        ("sweep", "single_coherent"), ("sweep", "dual_coherent"),
        ("sweep", "photon_pair"), ("sweep", "squeezed_vacuum"),
        ("phasematch", None), ("oracle", "quantum"),
        ("fit", "pair"), ("fit", "multiphoton"), ("synth", "photon_pair"),
    ]

    def __init__(self, seed: int, root: str, bad_flag: bool = False):
        super().__init__(seed)
        self.root = root
        self.scratch = os.path.join(root, SCRATCH_DIR)
        os.makedirs(self.scratch, exist_ok=True)
        self.bad_flag = bad_flag  # self-test: every child gets an unknown flag

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def shapes(self):
        return self.SHAPES

    def time_yardstick(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.scratch,
                       env=child_env(self.root), capture_output=True, timeout=CHILD_TIMEOUT_S,
                       check=True)
        return time.perf_counter() - t0

    # -- running one child ------------------------------------------------

    def spawn(self, args: list[str], inputs: dict[str, str], output: str | None):
        """Run the CLI in a fresh private directory; return what it left."""
        taskdir = tempfile.mkdtemp(dir=self.scratch)
        try:
            for name, text in inputs.items():
                with open(os.path.join(taskdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            cmd = [sys.executable, "-m", "nwaybs.cli"] + args
            if self.bad_flag:
                cmd.append("--no-such-flag")
            span = self.tracer.open("cli.subprocess") if self.tracer else None
            try:
                proc = subprocess.run(cmd, cwd=taskdir, env=child_env(self.root, taskdir),
                                      capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            finally:
                if span is not None:
                    self.tracer.close(span)
            text = None
            if output and os.path.exists(os.path.join(taskdir, output)):
                with open(os.path.join(taskdir, output), encoding="utf-8") as fh:
                    text = fh.read()
            leftovers = sorted(set(os.listdir(taskdir)) - set(inputs) - {output})
            return SimpleNamespace(rc=proc.returncode, stdout=proc.stdout,
                                   stderr=proc.stderr, out=text, leftovers=leftovers)
        finally:
            shutil.rmtree(taskdir, ignore_errors=True)

    @staticmethod
    def expect_clean_exit(res) -> None:
        expect(res.rc == 0, f"exit code {res.rc}: {res.stderr.strip()[-200:]}")
        expect(not res.leftovers, f"leftover files {res.leftovers}")
        expect(res.out is not None, "no output file")

    # -- tasks ------------------------------------------------------------

    def make_task(self, shape) -> Task:
        command, variant = shape
        run, check = getattr(self, f"task_{command}")(variant)
        return Task(f"cli.{command}.{variant}" if variant else f"cli.{command}", run, check)

    def _task(self, args, inputs, output, check) -> tuple:
        return (lambda: self.spawn(args, inputs, output)), check

    @staticmethod
    def profile_from(p: dict):
        return dispersion.DispersionProfile(
            omega0=p["omega0_rad_s"], beta_coeffs=p["beta_coeffs_si"], gamma=p["gamma_per_w_m"],
            length=p["length_m"], alpha=p["alpha_per_m"])

    def profile_config(self, alpha: float = 0.0, beta=(0.0,)) -> dict:
        return {"omega0_rad_s": W0, "beta_coeffs_si": list(beta),
                "gamma_per_w_m": float(self.rng.uniform(1e-3, 3e-3)),
                "length_m": float(self.rng.uniform(50.0, 150.0)), "alpha_per_m": alpha}

    def grid_config(self, n: int, center: float = W0) -> dict:
        offs = [2 * math.pi * float(self.rng.uniform(0.3, 0.7)) * 1e12 * (k + 1) for k in range(n)]
        return {"pump_freqs_rad_s": [center + o for o in offs],
                "weak_freqs_rad_s": [center - o for o in offs]}

    def task_transfer(self, variant: str) -> tuple:
        rng = self.rng
        n = int(rng.integers(3, 6))
        phi = float(rng.uniform(0.0, 2 * math.pi / n))
        cfg = {"n_modes": n, "transfer": variant}
        if variant != "ideal":
            alpha = float(rng.uniform(0.005, 0.05)) / 100.0 if variant == "lossy" else 0.0
            cfg["profile"] = self.profile_config(alpha=alpha)
            power = float(rng.uniform(0.1, 1.0))
            powers = list(rng.uniform(0.1, 1.0, n)) if variant == "general" else [power] * n
            cfg["pumps"] = {"powers_w": powers, "phases_rad": list(rng.uniform(0, 2 * math.pi, n))}
            if variant == "general":
                cfg["grid"] = self.grid_config(n)
        args = ["transfer", "--config", "cfg.json", "--phi", repr(phi), "--out", "out.csv"]

        def check(res, health):
            self.expect_clean_exit(res)
            comments, col = read_csv(res.out)
            expect(any(c.startswith("# config_hash=") for c in comments), "missing config_hash")
            vals = {name: values[0] for name, values in col.items()}
            got = np.array([[vals[f"re_{i}{j}"] + 1j * vals[f"im_{i}{j}"] for j in range(1, n + 1)]
                            for i in range(1, n + 1)])
            if variant == "ideal":
                want = ideal_matrix(n, phi)
            else:
                profile = self.profile_from(cfg["profile"])
                pumps = transfer.PumpConfig(powers=cfg["pumps"]["powers_w"],
                                            phases=cfg["pumps"]["phases_rad"])
                if variant == "lossy":
                    want = transfer.lossy_transfer(profile, pumps).entries
                else:
                    g = cfg["grid"]
                    grid = dispersion.FrequencyGrid(g["pump_freqs_rad_s"], g["weak_freqs_rad_s"])
                    mismatch = dispersion.nonlinear_mismatch(profile, grid, pumps.powers)
                    want = transfer.general_transfer(profile, pumps, mismatch).entries
            close_abs(got, want, 1e-12, f"{variant} transfer entries")
            residual = float(read_kv(res.stdout)["unitarity_residual"])
            health.record_max("transfer.unitarity_residual_max", residual)
            expect(residual < 1e-12, f"unitarity residual {residual:.3e}")

        return self._task(args, {"cfg.json": json.dumps(cfg)}, "out.csv", check)

    def sweep_state(self, kind: str, n: int) -> dict:
        rng = self.rng
        if kind == "single_coherent":
            section = {"kind": kind, "modes": [int(rng.integers(1, n + 1))]}
        else:
            section = {"kind": kind, "modes": [int(m) + 1 for m in rng.choice(n, 2, replace=False)]}
        if kind in ("single_coherent", "dual_coherent"):
            section["amplitude"] = float(rng.uniform(0.2, 2.0))
        if kind == "squeezed_vacuum":
            z = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            section["zeta"] = [float(z.real), float(z.imag)]
            section["pre_loss"] = list(rng.uniform(0.3, 1.0, n))
            section["post_loss"] = list(rng.uniform(0.3, 1.0, n))
        return section

    def input_state(self, section: dict):
        zeta = section.get("zeta", 0.0)
        if isinstance(zeta, list):
            zeta = complex(*zeta)
        return quantum.InputState(
            kind=section["kind"], modes=tuple(section["modes"]),
            amplitude=section.get("amplitude", 1.0), zeta=zeta,
            pre_loss=section.get("pre_loss"), post_loss=section.get("post_loss"))

    def check_sweep_csv(self, text: str, state, n: int, phis, health) -> None:
        _, col = read_csv(text)
        curve = SimpleNamespace(
            phi=col["phi"], singles=np.column_stack([col[f"g1_{i}"] for i in range(1, n + 1)]),
            g2={(i, j): col[f"g2_{i}{j}"] for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        close_abs(curve.phi, phis, 0.0, "phi column")
        curve.phi = phis
        if state.kind == "squeezed_vacuum":
            samples = [len(phis) // 3, len(phis) // 2, len(phis) - 1]
            check_curve_wick(state, n, phis, curve, samples, health)
        else:
            check_curve_closed_form(state, n, phis, curve)

    def task_sweep(self, kind: str) -> tuple:
        rng = self.rng
        n = int(rng.integers(3, 6))
        section = self.sweep_state(kind, n)
        steps = 101
        phi_max = float(rng.uniform(0.5, 1.5)) * 2 * math.pi / n
        cfg = {"n_modes": n, "input": section, "seed": int(rng.integers(0, 1000)),
               "sweep": {"phi_min": 0.0, "phi_max": phi_max, "steps": steps}}
        phis = np.linspace(0.0, phi_max, steps)

        def check(res, health):
            self.expect_clean_exit(res)
            self.check_sweep_csv(res.out, self.input_state(section), n, phis, health)

        args = ["sweep", "--config", "cfg.json", "--out", "out.csv"]
        return self._task(args, {"cfg.json": json.dumps(cfg)}, "out.csv", check)

    def task_phasematch(self, _variant) -> tuple:
        rng = self.rng
        n = int(rng.integers(3, 8))
        beta = (0.0, 0.0, 0.0, float(rng.uniform(0.5, 2.0)) * 1e-40,
                float(rng.uniform(0.5, 2.0)) * 1e-55)
        cfg = {"profile": self.profile_config(beta=beta), "grid": self.grid_config(n),
               "pumps": {"powers_w": list(rng.uniform(0.1, 1.0, n))}}

        def check(res, health):
            self.expect_clean_exit(res)
            _, col = read_csv(res.out)
            g = cfg["grid"]
            profile = self.profile_from(cfg["profile"])
            grid = dispersion.FrequencyGrid(g["pump_freqs_rad_s"], g["weak_freqs_rad_s"])
            rep = dispersion.nonlinear_mismatch(profile, grid, cfg["pumps"]["powers_w"])
            close_rel(col["delta_beta_per_m"], rep.delta_beta, 1e-12, "delta_beta")
            close_rel(col["delta_k_per_m"], rep.delta_k, 1e-12, "delta_k")
            expect(np.array_equal(col["negligible"] == 1.0, rep.negligible), "negligible flags")

        args = ["phasematch", "--config", "cfg.json", "--out", "out.csv"]
        return self._task(args, {"cfg.json": json.dumps(cfg)}, "out.csv", check)

    def task_oracle(self, _variant) -> tuple:
        n = 3
        section = self.sweep_state("squeezed_vacuum", n)
        section["modes"] = [1, 3]
        cfg = {"n_modes": n, "input": section}

        def check(res, health):
            self.expect_clean_exit(res)
            _, col = read_csv(res.out)
            expect(len(col["pass"]) == 25, f"expected 25 oracle rows, got {len(col['pass'])}")
            expect(np.all(col["pass"] == 1.0), "oracle row failed")
            worst = float(read_kv(res.stdout)["max_error"].split()[0])
            expect(worst < 1e-10, f"oracle max_error {worst:.3e}")

        args = ["oracle", "--config", "cfg.json", "--check", "quantum", "--tol", "1e-10",
                "--out", "out.csv"]
        return self._task(args, {"cfg.json": json.dumps(cfg)}, "out.csv", check)

    def task_fit(self, model: str) -> tuple:
        rng = self.rng
        if model == "pair":
            kappa = float(rng.uniform(0.5, 2.0))
            powers = np.linspace(0, 2 * math.pi / 3 / kappa, 30)
            values = np.abs(ideal_pq(3, kappa * powers)[0]) ** 2
            rows = zip(powers, values)
            data = "power_w,value\n" + "".join(f"{p:.17g},{v:.17g}\n" for p, v in rows)
            key, want = "phase_scale_rad_per_w", kappa
        else:
            zeta = float(rng.uniform(0.3, 0.5))
            conv = float(rng.uniform(0.3, 0.6))
            s2 = np.sinh(np.linspace(0.05, zeta, 12)) ** 2
            ratio = s2 / (2 * (1 + s2))
            rows = zip(s2 / conv, ratio)
            data = "singles_rate,ratio\n" + "".join(f"{s:.17g},{r:.17g}\n" for s, r in rows)
            key, want = "zeta", zeta

        def check(res, health):
            self.expect_clean_exit(res)
            kv = read_kv(res.out)
            expect(kv.get("converged") == "1", "fit did not converge")
            close_rel(float(kv[key]), want, 1e-6, f"fitted {key}")

        args = ["fit", "--data", "data.csv", "--model", model, "--out", "out.txt"]
        return self._task(args, {"data.csv": data}, "out.txt", check)

    def synth_config(self, section: dict, points: int = 10) -> dict:
        kappa = float(self.rng.uniform(0.5, 2.0))
        powers = list(np.linspace(0.05, 2 * math.pi / 3 / kappa, points))
        return {"n_modes": 3, "input": section, "seed": int(self.rng.integers(0, 1000)),
                "sweep": {"powers_w": powers, "phase_scale_rad_per_w": kappa}}

    def check_synth_pair(self, res, cfg: dict, modes) -> None:
        """Noise-free synth output against the photon-pair closed form."""
        self.expect_clean_exit(res)
        _, col = read_csv(res.out)
        kappa = cfg["sweep"]["phase_scale_rad_per_w"]
        powers = np.concatenate([[0.0], cfg["sweep"]["powers_w"]])
        close_abs(col["power_w"], powers, 0.0, "power column")
        p, q = ideal_pq(3, kappa * powers)
        for i in range(1, 4):
            want = (np.abs(p) ** 2 + np.abs(q) ** 2) if i in modes else 2 * np.abs(q) ** 2
            close_abs(col[f"singles_{i}"], want, 1e-12, f"singles_{i}")
        for (i, j) in [(1, 2), (1, 3), (2, 3)]:
            expect(f"coinc_{i}{j}" in col, f"missing coinc_{i}{j}")
            close_abs(col[f"coinc_{i}{j}"], np.abs(pair_amplitude(p, q, (i, j), modes)) ** 2,
                      1e-12, f"coinc_{i}{j}")

    def task_synth(self, _variant) -> tuple:
        cfg = self.synth_config({"kind": "photon_pair", "modes": [1, 3]})
        args = ["synth", "--config", "cfg.json", "--out", "out.csv", "--noise", "0.0"]
        return self._task(args, {"cfg.json": json.dumps(cfg)}, "out.csv",
                          lambda res, health: self.check_synth_pair(res, cfg, {1, 3}))

    # -- known defects ------------------------------------------------------

    def probe_defects(self) -> list[dict]:
        """Run each known-defect case once; a probe that passes means the defect is fixed."""
        probes = []

        def record(name: str, task: tuple) -> None:
            run, check = task
            try:
                check(run(), Health())
                probes.append({"probe": name, "passed": True, "detail": ""})
            except (CheckFailed, KeyError, ValueError) as exc:
                probes.append({"probe": name, "passed": False, "detail": str(exc)[:200]})

        squeezed = self.synth_config({"kind": "squeezed_vacuum", "modes": [1, 3], "zeta": 0.4})

        def check_squeezed(res, health):
            self.expect_clean_exit(res)
            _, col = read_csv(res.out)
            expect(any(name.startswith("coinc_") for name in col), "no coincidence columns")
            singles = sum(col[f"singles_{i}"] for i in (1, 2, 3))
            expect(np.all(singles[1:] > 0), "all-zero singles")

        record("synth.squeezed_vacuum", self._task(
            ["synth", "--config", "cfg.json", "--out", "out.csv"],
            {"cfg.json": json.dumps(squeezed)}, "out.csv", check_squeezed))

        modes12 = self.synth_config({"kind": "photon_pair", "modes": [1, 2]})
        record("synth.input_modes_12", self._task(
            ["synth", "--config", "cfg.json", "--out", "out.csv", "--noise", "0.0"],
            {"cfg.json": json.dumps(modes12)}, "out.csv",
            lambda res, health: self.check_synth_pair(res, modes12, {1, 2})))

        n = 3
        pair = {"n_modes": n, "input": {"kind": "photon_pair", "modes": [1, 3]},
                "sweep": {"phi_min": 0.0, "phi_max": 2 * math.pi / n, "steps": 21}}
        phis = np.linspace(0.0, 2 * math.pi / n, 21)
        dual = quantum.InputState(kind="dual_coherent", modes=(1, 3))

        def check_override(res, health):
            self.expect_clean_exit(res)
            self.check_sweep_csv(res.out, dual, n, phis, health)

        record("sweep.input_override_leak", self._task(
            ["sweep", "--config", "cfg.json", "--input", "dual", "--out", "out.csv"],
            {"cfg.json": json.dumps(pair)}, "out.csv", check_override))
        return probes


# ---------------------------------------------------------------------------
# import and start-up profile


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(cumulative ms of ``import nwaybs``, ms of its outermost scipy imports)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        depth = len(name_field) - len(name_field.lstrip())
        entries.append((depth, name_field.strip(), int(cumulative) / 1000.0))
    nwaybs_ms = next(ms for depth, name, ms in entries if name == "nwaybs")
    # the log is post-order (children first), so read it backwards to see
    # every parent before its children
    scipy_ms = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, ms in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors):
            scipy_ms += ms
        ancestors.append((depth, name))
    return nwaybs_ms, scipy_ms


def import_profile(root: str, repeats: int = 3) -> dict:
    """Median import and start-up times over fresh interpreters."""
    env = child_env(root)
    imports, scipys, startups = [], [], []
    with tempfile.TemporaryDirectory(dir=root, prefix=SCRATCH_DIR + "-import-") as cwd:
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nwaybs"],
                                  cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=True)
            total, scipy_ms = parse_importtime(proc.stderr)
            imports.append(total)
            scipys.append(scipy_ms)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import nwaybs.cli"], cwd=cwd, env=env,
                           capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
            startups.append((time.perf_counter() - t0) * 1e3)
    return {"cli.import_ms": statistics.median(imports),
            "cli.import_scipy_ms": statistics.median(scipys),
            "cli.startup_ms": statistics.median(startups)}
