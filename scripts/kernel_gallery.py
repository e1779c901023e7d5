"""Tabulate the bundled kernel densities and the spectra they generate.

For each kernel the script writes rho.csv and spectrum.csv into its own
subdirectory and prints a one-line summary (support, threshold root).

Usage: PYTHONPATH=src python3 scripts/kernel_gallery.py [--out DIR] [--grid-step S]
(from the repository root; drop PYTHONPATH=src after `pip install -e .`)
"""

import argparse
import os
import sys

from rws import (
    DiracKernel,
    GaussianKernel,
    LogDensity,
    ShiftedGammaKernel,
    ShiftedPoissonKernel,
    UnsupportedVariantError,
    spectrum_from_rho,
)
from rws.fileio import write_columns

GALLERY = [
    ("gaussian", GaussianKernel(m=1.0, sigma=0.5)),
    ("gamma", ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0)),
    ("poisson", ShiftedPoissonKernel(alpha0=0.3, c=1.0)),
    ("dirac", DiracKernel(H=0.8)),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/kernels")
    ap.add_argument("--grid-step", type=float, default=0.005)
    args = ap.parse_args(argv)

    for name, kernel in GALLERY:
        curve = spectrum_from_rho(LogDensity.from_kernel(kernel), grid_step=args.grid_step)
        sub = os.path.join(args.out, name)
        os.makedirs(sub, exist_ok=True)
        write_columns(os.path.join(sub, "rho.csv"), "alpha,rho", curve.h_grid, kernel.rho(curve.h_grid))
        write_columns(os.path.join(sub, "spectrum.csv"), "h,d", curve.h_grid, curve.d_values)
        try:
            astar = f"{kernel.alpha_star():+.6f}"
        except UnsupportedVariantError:
            astar = "n/a"
        print(f"{name:9s} h in [{curve.h_min:.4f}, {curve.h_max:.4f}]  alpha* = {astar}")
    print(f"wrote CSV pairs under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
