"""Tabulate the bundled kernel densities and the spectra they generate.

For each kernel the script runs `rws kernel`, which writes rho.csv,
spectrum.csv and manifest.txt into the kernel's own subdirectory and
prints a one-line summary (support, threshold root).

Usage: PYTHONPATH=src python3 scripts/kernel_gallery.py [--out DIR] [--grid-step S]
(from the repository root; drop PYTHONPATH=src after `pip install -e .`)
"""

import argparse
import os
import sys

from rws import cli
from rws.spectra import DEFAULT_GRID_STEP

GALLERY = [  # `rws kernel` arguments: variant, then key=value parameters
    ("gaussian", "m=1", "sigma=0.5"),
    ("gamma", "alpha0=0.1", "nu=1.5", "beta=4"),
    ("poisson", "alpha0=0.3", "c=1"),
    ("dirac", "H=0.8"),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/kernels")
    ap.add_argument("--grid-step", default=str(DEFAULT_GRID_STEP))
    args = ap.parse_args(argv)

    for variant, *params in GALLERY:
        out = os.path.join(args.out, variant)
        code = cli.main(["kernel", variant, *params, "--out", out, "--grid-step", args.grid_step])
        if code:
            return code
    print(f"wrote CSV pairs under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
