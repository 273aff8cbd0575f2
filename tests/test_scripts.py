"""Smoke tests for the demo scripts: each runs, prints its landmark and leaves no files."""

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
