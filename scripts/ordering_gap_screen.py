"""Measure the finite-sample gap between the two spectrum estimators.

In the limit the counting (large-deviation) estimate never exceeds the
Legendre estimate.  At finite J the counting fit picks up positive noise
wherever a scale sees only a handful of qualifying coefficients, and the
running supremum drags that noise into the bulk, so individual seeds can
violate the ordering by a few tenths.  This script prints, per source and
seed, max(d2 - d1) over the h where d2 is present and d1 is nonnegative.
The shipped regression corpus was picked from this table.

Usage: PYTHONPATH=src python3 scripts/ordering_gap_screen.py [--J 16] [--seeds 12]
(from the repository root; drop PYTHONPATH=src after `pip install -e .`)
"""

import argparse
import sys

import numpy as np

from rws import (
    ConfigError,
    FlatLaw,
    GaussianKernel,
    ShiftedGammaKernel,
    ShiftedPoissonKernel,
    SynthesisConfig,
    analyze_pyramid,
    curve_from_function,
    forward_dwt,
    parse_wavelet_name,
    synthesize,
)

SOURCES = [
    ("parabola", lambda: curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5)),
    ("gaussian", lambda: GaussianKernel(m=1.0, sigma=0.5)),
    ("gamma", lambda: ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0)),
    ("poisson", lambda: ShiftedPoissonKernel(alpha0=0.3, c=1.0)),
    ("flat", lambda: FlatLaw(0.7)),
]


def gap(J, source, seed, filt):
    x = synthesize(SynthesisConfig(J=J, source=source, wavelet_order=filt.order, seed=seed))
    sp = analyze_pyramid(forward_dwt(x, filt)).spectrum
    both = np.isfinite(sp.d2) & (sp.d1 >= 0.0)
    if not both.any():
        return float("nan")
    return float(np.max(sp.d2[both] - sp.d1[both]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--J", type=int, default=16)
    ap.add_argument("--seeds", type=int, default=12, help="screen seeds 0..N-1")
    ap.add_argument("--wavelet", default="db10", help="synthesis and analysis wavelet")
    ap.add_argument("--tol", type=float, default=0.05, help="mark seeds above this gap")
    args = ap.parse_args(argv)
    try:
        filt = parse_wavelet_name(args.wavelet)
    except ConfigError as exc:
        ap.error(str(exc))

    print(f"J={args.J} wavelet={args.wavelet} (same filter both directions)")
    for name, make in SOURCES:
        row = []
        for seed in range(args.seeds):
            g = gap(args.J, make(), seed, filt)
            mark = "*" if g > args.tol else " "
            row.append(f"{seed}:{g:+.3f}{mark}")
        print(f"{name:9s} " + "  ".join(row))
    print(f"(* = gap above {args.tol})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
