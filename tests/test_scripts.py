"""Smoke tests for the demo scripts: each runs, prints its landmark and leaves no files."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import nwaybs

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, cwd, *args):
    """Run scripts/<name> in a fresh interpreter from ``cwd``; return its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nwaybs.__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture()
def workdir(tmp_path):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    yield cwd
    assert list(cwd.iterdir()) == []


def test_tritter_sweep(tmp_path, workdir):
    out_dir = tmp_path / "out"
    out = run_script("run_tritter_sweep.py", workdir, "--steps", "37", "--out-dir", str(out_dir))
    assert "pair g2_13 at the tritter phase: 0.111111 (expected 1/9)" in out
    assert "pair g2_13 minimum: 0.100000" in out
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [f"sweep_{k}.csv" for k in ("dual", "pair", "single", "squeezed")]
    assert all(len((out_dir / n).read_text().splitlines()) == 38 for n in names)


def test_fit_closed_loop(workdir):
    out = run_script("run_fit_closed_loop.py", workdir)
    lines = out.splitlines()
    assert lines[0].startswith("kappa: true 0.7000") and lines[0].endswith("converged=True)")
    assert lines[2].startswith("zeta:  true 0.4000") and lines[2].endswith("converged=True)")


def test_phase_matching(workdir):
    out = run_script("run_phase_matching.py", workdir)
    assert "zero-GVD angular frequency: 1.463982e+15 rad/s (233.000 THz)" in out
    assert "max |U|^2 deviation from the matched splitter:" in out


def test_time_oracles(monkeypatch):
    # the script's own sizes take about half a second; the same calls at tiny sizes
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("time_oracles", SCRIPTS / "time_oracles.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    variants = ("matched", "mismatched", "unequal", "lossy")
    others = ["full_fwm_reference", "full_fwm_reference.dispersive", "loss_chain_wick.N3",
              "loss_chain_wick.N4", "fock_evolve.N4", "mc_phase_average.N5"]
    assert list(script.oracle_calls()) == [
        f"integrate_weak.{v}.N{n}" for v in variants for n in (3, 5, 8)] + others
    for name, value in (("N_MODES", (2,)), ("DIVISIONS", 100), ("SAMPLES", 100)):
        monkeypatch.setattr(script, name, value)
    calls = script.oracle_calls()
    assert list(calls) == [f"integrate_weak.{v}.N2" for v in variants] + others
    assert all(script.min_ms(call, 1) > 0 for call in calls.values())


def test_time_fits(monkeypatch):
    # the script's own sizes; then the same calls at tiny sizes
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("time_fits", SCRIPTS / "time_fits.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def names(points, fit_points, zeta_points):
        return [f"generate_synthetic.P{points}.exact", f"generate_synthetic.P{points}.noisy",
                f"normalize_coincidences.P{points}",
                *(f"fit_phase_scale.P{n}" for n in fit_points),
                f"fit_channel_scales.P{points}", f"fit_zeta.P{zeta_points}.exact",
                f"fit_zeta.P{zeta_points}.noisy", "CountRecord"]

    assert list(script.fit_calls()) == names(30, (30, 600), 600)
    for name, value in (("POINTS", 6), ("FIT_POINTS", (6,)), ("ZETA_POINTS", 10)):
        monkeypatch.setattr(script, name, value)
    calls = script.fit_calls()
    assert list(calls) == names(6, (6,), 10)
    assert all(script.min_ms(call, 1) > 0 for call in calls.values())
