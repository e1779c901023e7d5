"""Command-line front end.

    rws synth CONFIG [--out DIR] [--seed N] [--wavelet dbK]
    rws analyze SIGNAL [--out DIR] [--wavelet dbK] [--scales N] [--grid-step S]
    rws kernel VARIANT key=value ... [--out DIR] [--grid-step S]
    rws selftest

Exit codes: 0 success, 1 selftest failure, 2 malformed config, file or
option (including an output path that cannot be written), 3
mathematically invalid input (inadmissible spectrum, kernel threshold
violation, degenerate data).

Options are not checked here: each goes to the library function that
uses it, which raises ConfigError (exit 2) for a bad value before any
output is written.

Every writing command drops a ``manifest.txt`` next to its outputs
recording the resolved parameters, inputs, and outputs in a fixed key
order with the wall-clock duration last, so two runs of the same
command differ at most in paths and duration.  An earlier manifest goes
before the first output, so a manifest stands only beside a whole bundle.
"""

import argparse
import dataclasses
import os
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ConfigError, FormatError, MathValidityError
from .estimation import DEFAULT_SCALE_COUNT, analyze_pyramid
from .spectra import (
    DEFAULT_GRID_STEP,
    GaussianKernel,
    LogDensity,
    ShiftedGammaKernel,
    ShiftedPoissonKernel,
    check_admissible,
    curve_from_function,
    spectrum_from_rho,
)
# validate_config is unused here (generate_coefficients runs it); perfbench/tracing.py hooks it here
from .synthesis import synthesize, validate_config
from .wavelet import (SUPPORTED_ORDERS, daubechies_filter, forward_dwt, inverse_dwt,
                      parse_wavelet_name)


@lru_cache(maxsize=1)  # parsing leaves a parser unchanged, so one per process serves every main()
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rws",
        description="Synthesize and analyze signals with prescribed multifractal spectra.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a signal from a config file")
    s.add_argument("config", help="key=value config file")
    s.add_argument("--out", default=".", help="output directory (default: .)")
    s.add_argument("--seed", type=int, default=None, help="override the config seed")
    s.add_argument("--wavelet", default=None, help="override the config wavelet (db1..db10)")
    s.set_defaults(run=cmd_synth)

    a = sub.add_parser("analyze", help="estimate the spectrum of a sampled signal")
    a.add_argument("signal", help="rws-sig binary or one-sample-per-line text")
    a.add_argument("--out", default=".", help="output directory (default: .)")
    a.add_argument("--wavelet", default="db3", help="analysis wavelet (default: db3)")
    a.add_argument("--scales", type=int, default=DEFAULT_SCALE_COUNT,
                   help="scales in each fit (default: %(default)s)")
    a.set_defaults(run=cmd_analyze)

    k = sub.add_parser("kernel", help="tabulate a kernel density and its spectrum")
    k.add_argument("variant", help=" | ".join(fileio.KERNELS))
    k.add_argument("params", nargs="*", help="kernel parameters as key=value")
    k.add_argument("--out", default=".", help="output directory (default: .)")
    k.set_defaults(run=cmd_kernel)
    for parser in (a, k):
        parser.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP,
                            help="h grid step (default: %(default)s)")

    sub.add_parser("selftest", help="run built-in consistency checks").set_defaults(run=cmd_selftest)
    return p


def _start_bundle(args) -> None:
    os.makedirs(args.out, exist_ok=True)
    Path(args.out, "manifest.txt").unlink(missing_ok=True)


def _write_manifest(args, items, t0) -> None:
    """manifest.txt in args.out: the command, then items, then the seconds since t0."""
    fileio.write_key_values(
        os.path.join(args.out, "manifest.txt"),
        [("command", args.command)] + items + [("duration_s", time.perf_counter() - t0)],
    )


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    cfg, resolved = fileio.load_synthesis_config(args.config)
    if args.seed is not None:   # the config checks the new value
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.wavelet is not None:
        cfg = dataclasses.replace(cfg, wavelet_order=parse_wavelet_name(args.wavelet).order)
    # the values in effect; a dict update keeps each key where the config put it
    resolved = dict(resolved, seed=cfg.seed, wavelet=f"db{cfg.wavelet_order}")
    try:
        signal = synthesize(cfg)
    except MathValidityError as exc:   # the config's values, framed like its other errors
        raise type(exc)(f"{args.config}: {exc}") from None
    _start_bundle(args)
    sig_path = os.path.join(args.out, "signal.rws")
    fileio.write_signal(sig_path, signal)
    _write_manifest(args, list(resolved.items()) + [
        ("input", args.config),
        ("output", "signal.rws"),
        ("samples", 2**cfg.J),
    ], t0)
    print(f"wrote {sig_path} ({2**cfg.J} samples, J={cfg.J}, seed={cfg.seed})")
    return 0


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    x = fileio.read_signal(args.signal)
    filt = parse_wavelet_name(args.wavelet)
    pyramid = forward_dwt(x, filt)
    del x  # free the signal (8 * 2^J bytes): analysis reads only the pyramid
    result = analyze_pyramid(pyramid, scale_count=args.scales, grid_step=args.grid_step)
    _start_bundle(args)
    fileio.write_lambda_csv(
        os.path.join(args.out, "lambda.csv"), result.lambda_curve, result.closed_curve
    )
    fileio.write_tau_csv(os.path.join(args.out, "tau.csv"), result.tau_curve)
    fileio.write_estimate_csv(os.path.join(args.out, "spectrum.csv"), result.spectrum)
    meta = result.spectrum.meta
    j0, j1 = meta["scale_range"]
    fileio.write_key_values(
        os.path.join(args.out, "meta.txt"),
        [
            ("J", pyramid.J),
            ("wavelet", filt.name),
            ("scales", f"{j0}..{j1}"),
            ("q_c", meta["q_c"]),
            ("h_min", meta["h_min"]),
            ("h_max", meta["h_max"]),
            ("grid_step", args.grid_step),
            ("q_c_found", int(meta["q_c_found"])),
        ],
    )
    _write_manifest(args, [
        ("wavelet", filt.name),
        ("scales", args.scales),
        ("grid_step", args.grid_step),
        ("input", args.signal),
        ("output", "lambda.csv,tau.csv,spectrum.csv,meta.txt"),
    ], t0)
    print(
        f"analyzed {args.signal}: q_c={meta['q_c']:.4g}, "
        f"h range [{meta['h_min']:.4g}, {meta['h_max']:.4g}], scales {j0}..{j1}"
    )
    return 0


def cmd_kernel(args) -> int:
    t0 = time.perf_counter()
    params = fileio.parse_key_values("\n".join(args.params), "kernel parameter")
    kernel = fileio.build_kernel(args.variant, params)
    curve = spectrum_from_rho(kernel, grid_step=args.grid_step)
    _start_bundle(args)
    fileio.write_columns(os.path.join(args.out, "rho.csv"), "alpha,rho",
                         curve.h_grid, kernel.rho(curve.h_grid))
    fileio.write_columns(os.path.join(args.out, "spectrum.csv"), "h,d",
                         curve.h_grid, curve.d_values)
    astar_text = f"{kernel.alpha_star():.12g}"
    _write_manifest(args, [("variant", args.variant)] + sorted(dataclasses.asdict(kernel).items()) + [
        ("alpha_star", astar_text),
        ("h_min", curve.h_min),
        ("h_max", curve.h_max),
        ("grid_step", args.grid_step),
        ("output", "rho.csv,spectrum.csv"),
    ], t0)
    print(
        f"kernel {args.variant}: h_min={curve.h_min:.6g}, h_max={curve.h_max:.6g}, "
        f"alpha*={astar_text}"
    )
    return 0


# ---------------------------------------------------------------------------
# selftest: the acceptance gate runs these same checks as a02, a03, a04 and a07

def _selftest_curves():
    """Admissible reference curves whose densities regenerate them exactly:
    the convex arc (h - 1/2)^2 and its chord h - 1/2 on [1/2, 3/2]."""
    return (
        curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5),
        curve_from_function(lambda h: h - 0.5, 0.5, 1.5),
    )


def _check_filter_qmf():
    """db1..db10 taps sum to sqrt(2) and are orthonormal to every even shift."""
    worst = 0.0
    for order in SUPPORTED_ORDERS:
        lo = daubechies_filter(order).lowpass
        worst = max(worst, abs(float(lo.sum()) - np.sqrt(2.0)))
        for m in range(lo.size // 2):
            dot = float(np.dot(lo[: lo.size - 2 * m], lo[2 * m :]))
            worst = max(worst, abs(dot - float(m == 0)))
    return worst <= 1e-12, f"max_dev={worst:.3e} (<=1e-12)"


def _check_perfect_reconstruction():
    """db1..db10 inverse transforms rebuild 2^12 normal samples."""
    gen = np.random.Generator(np.random.Philox(key=np.array([4242, 0], dtype=np.uint64)))
    x = gen.standard_normal(4096)
    worst = 0.0
    for order in SUPPORTED_ORDERS:
        f = daubechies_filter(order)
        worst = max(worst, float(np.max(np.abs(inverse_dwt(forward_dwt(x, f), f) - x))))
    return worst <= 1e-9, f"max_err={worst:.3e} (<=1e-9)"


def _check_kernel_maxima():
    """Each density equals 1 at its closed-form peak and is at most 1 within 0.05 of it."""
    ok, details = True, []
    # (kernel, closed-form location of its peak), made here and not on import:
    # a kernel solves its alpha* when made
    for kernel, at in (
        (GaussianKernel(m=1.0, sigma=0.5), 1.0),
        (ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0), 0.1 + 1.5 / 4.0),
        (ShiftedPoissonKernel(alpha0=0.3, c=1.0), 0.3 + 1.0),
        (ShiftedPoissonKernel(alpha0=0.0, c=1.0), 1.0),
    ):
        scan = at + 1e-4 * np.arange(-500, 501)
        vals = kernel.rho(scan)
        top, where = float(np.max(vals)), float(scan[np.argmax(vals)])
        peak = float(kernel.rho(at))
        ok = ok and abs(peak - 1.0) <= 1e-9 and top <= 1.0 + 1e-9
        ok = ok and abs(where - at) <= 1e-4 + 1e-12  # argmax on the scan grid
        details.append(f"{type(kernel).__name__}: rho({at:g})={peak:.12f} argmax={where:g}")
    return ok, "; ".join(details) + " (rho=1+-1e-9, max<=1+1e-9, argmax+-1e-4)"


def _check_spectrum_identity():
    """The reference curves are admissible and regenerate from their densities."""
    worst = 0.0
    for curve in _selftest_curves():
        violations = check_admissible(curve)
        if violations:
            return False, f"reference curve inadmissible: {'; '.join(violations)}"
        out = spectrum_from_rho(LogDensity(curve.h_grid, curve.d_values))
        idx = np.searchsorted(out.h_grid, curve.h_grid)
        worst = max(worst, float(np.nanmax(np.abs(out.d_values[idx] - curve.d_values))))
    return worst <= 1e-9, f"max_err={worst:.3e} (<=1e-9)"


# (name, check) in run order; a check returns (ok, measured value and bound)
SELFTEST_CHECKS = (
    ("filter-qmf", _check_filter_qmf),
    ("perfect-reconstruction", _check_perfect_reconstruction),
    ("kernel-maxima", _check_kernel_maxima),
    ("spectrum-identity", _check_spectrum_identity),
)


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in SELFTEST_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"{len(SELFTEST_CHECKS) - failures} of {len(SELFTEST_CHECKS)} checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # fileio turns read failures into FormatError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
