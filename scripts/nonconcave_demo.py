"""Recover a non-concave spectrum that Legendre analysis cannot see.

Synthesizes a series whose target spectrum is the convex arc
d(h) = (h - 1/2)^2 on [1/2, 3/2], runs both estimators on it, and
prints their sup errors against the target and against its concave
hull (the chord d(h) = h - 1/2).  The counting estimate tracks the
full curve; the Legendre estimate can only ever return the hull.

Usage: PYTHONPATH=src python3 scripts/nonconcave_demo.py [--J 20] [--seed 21] [--out DIR]
(from the repository root; drop PYTHONPATH=src after `pip install -e .`)
"""

import argparse
import os
import sys

import numpy as np

from rws import (
    ConfigError,
    SynthesisConfig,
    analyze_pyramid,
    curve_from_function,
    forward_dwt,
    parse_wavelet_name,
    synthesize,
)
from rws.fileio import write_columns, write_estimate_csv, write_signal


def target(h):
    return (h - 0.5) ** 2


def hull(h):
    return h - 0.5


def sup_err(h, got, want_fn, lo, hi):
    m = (h >= lo) & (h <= hi) & np.isfinite(got)
    if not m.any():
        return float("nan")
    return float(np.max(np.abs(got[m] - want_fn(h[m]))))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--J", type=int, default=20, help="dyadic exponent (default 20)")
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--synth-wavelet", default="db10")
    ap.add_argument("--analysis-wavelet", default="db3")
    ap.add_argument("--out", default="out/nonconcave")
    args = ap.parse_args(argv)
    try:
        synth, analysis = [parse_wavelet_name(w) for w in (args.synth_wavelet, args.analysis_wavelet)]
    except ConfigError as exc:
        ap.error(str(exc))

    curve = curve_from_function(target, 0.5, 1.5)
    cfg = SynthesisConfig(J=args.J, source=curve, wavelet_order=synth.order, seed=args.seed)
    x = synthesize(cfg)
    result = analyze_pyramid(forward_dwt(x, analysis))
    sp = result.spectrum

    os.makedirs(args.out, exist_ok=True)
    write_signal(os.path.join(args.out, "signal.rws"), x)
    write_columns(os.path.join(args.out, "target.csv"), "h,d", curve.h_grid, curve.d_values)
    write_estimate_csv(os.path.join(args.out, "estimates.csv"), sp)

    h = sp.h_grid
    print(f"J={args.J} seed={args.seed} "
          f"synth={args.synth_wavelet} analysis={args.analysis_wavelet}")
    print(f"counting estimate vs target   sup[0.7,1.4] = {sup_err(h, sp.d2, target, 0.7, 1.4):.4f}")
    print(f"counting estimate vs hull     sup[0.7,1.4] = {sup_err(h, sp.d2, hull, 0.7, 1.4):.4f}")
    print(f"Legendre estimate vs target   sup[0.7,1.4] = {sup_err(h, sp.d1, target, 0.7, 1.4):.4f}")
    print(f"Legendre estimate vs hull     sup[0.7,1.4] = {sup_err(h, sp.d1, hull, 0.7, 1.4):.4f}")
    mid = int(np.searchsorted(h, 1.0))
    print(f"at h = 1.0 (bottom of the dip): target = 0.25, hull = 0.50, "
          f"counting = {sp.d2[mid]:.3f}, Legendre = {sp.d1[mid]:.3f}")
    print(f"wrote {args.out}/signal.rws, target.csv, estimates.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
