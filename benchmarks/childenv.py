"""Environment for every process the benchmark starts."""

from __future__ import annotations

import os

# one BLAS thread per process: nproc is 2 and the machine is shared
PIN_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: str, tmpdir: str | None = None) -> dict:
    """This process's environment with nwaybs from ``root/src`` and pinned threads."""
    env = dict(os.environ)
    env.update(PIN_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    if tmpdir is not None:
        env["TMPDIR"] = tmpdir
    return env
