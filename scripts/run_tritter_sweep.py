#!/usr/bin/env python3
"""Sweep the three-way frequency beamsplitter over nonlinear phase.

Computes singles and normalized (1,3) coincidences for the four supported
input classes and writes one CSV per input kind.  Prints the landmark
values: the balanced-tritter coincidence 1/9 at phi = 2*pi/9 and the global
coincidence minimum 0.1 at cos(3*phi) = -0.35.
"""

import argparse
import csv
import math
import pathlib

import numpy as np

from nwaybs.quantum import InputState, correlation_curve, g2_photon_pair

KINDS = {
    "single": InputState(kind="single_coherent", modes=(1,)),
    "dual": InputState(kind="dual_coherent", modes=(1, 3)),
    "pair": InputState(kind="photon_pair", modes=(1, 3)),
    "squeezed": InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=361)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("out"))
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    phis = np.linspace(0.0, 2 * math.pi / 3, args.steps)
    for name, state in KINDS.items():
        curve = correlation_curve(state, phis)
        path = args.out_dir / f"sweep_{name}.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            header = ["phi"] + [f"singles_{k}" for k in (1, 2, 3)]
            header += [f"g2_{i}{j}" for (i, j) in curve.g2]
            w.writerow(header)
            for k, phi in enumerate(phis):
                row = [phi, *curve.singles[k]]
                row += [g2[k] for g2 in curve.g2.values()]
                w.writerow([f"{x:.12g}" for x in row])
        print(f"wrote {path}")

    tritter = 2 * math.pi / 9
    g13, _ = g2_photon_pair([tritter])
    print(f"pair g2_13 at the tritter phase: {g13[0]:.6f} (expected 1/9)")
    phi_min = math.acos(-0.35) / 3
    g13_min, _ = g2_photon_pair([phi_min])
    print(f"pair g2_13 minimum: {g13_min[0]:.6f} at phi = {phi_min:.6f} "
          "(expected 0.1 at cos 3phi = -0.35)")


if __name__ == "__main__":
    main()
