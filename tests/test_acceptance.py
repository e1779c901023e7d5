"""Acceptance gate: every shipped guarantee, one verdict line each.

Run with -s to see the verdict lines on passing runs too.
"""

import hashlib
import math
import time

import numpy as np
import pytest
from scipy import stats

from rws import (
    AlphaField,
    CoefficientPyramid,
    DiracKernel,
    FlatLaw,
    GaussianKernel,
    KernelValidityError,
    ShiftedGammaKernel,
    ShiftedPoissonKernel,
    SynthesisConfig,
    analyze_pyramid,
    curve_from_function,
    daubechies_filter,
    forward_dwt,
    generate_coefficients,
    kernel_validity,
    sample_alphas,
    scale_law_from_kernel,
    scale_law_from_spectrum,
    structure_function,
    synthesize,
    validate_config,
)
from rws import cli

LOG2E = np.log2(np.e)

# a02, a03, a04 and a07 are the checks `rws selftest` runs
SELFTEST = dict(cli.SELFTEST_CHECKS)

# Frozen by independent bracketed bisection of the threshold equation
# (200 halvings, residual < 1e-15 at the root).
ALPHA_STAR_POISSON_1 = -0.090057199312764347


def parabola_curve():
    return curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5)


def report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"{tag}: {detail}"


def _uniforms(tag, n):
    gen = np.random.Generator(np.random.Philox(key=np.array([tag, 0], dtype=np.uint64)))
    return gen.random(n)


def test_a01_nonconcave_target_recovered_at_scale():
    t0 = time.perf_counter()
    cfg = SynthesisConfig(J=20, source=parabola_curve(), wavelet_order=10, seed=21)
    x = synthesize(cfg)
    sp = analyze_pyramid(forward_dwt(x, daubechies_filter(3))).spectrum
    runtime = time.perf_counter() - t0

    def sup_err(lo, hi):
        m = (sp.h_grid >= lo) & (sp.h_grid <= hi)
        if not np.all(np.isfinite(sp.d2[m])):
            return math.inf
        return float(np.max(np.abs(sp.d2[m] - (sp.h_grid[m] - 0.5) ** 2)))

    wide = sup_err(0.7, 1.4)
    core = sup_err(0.9, 1.3)
    ok = wide <= 0.15 and core <= 0.10 and runtime < 60.0
    report(
        "a01 target recovery (J=20, db10 -> db3)",
        ok,
        f"sup_err[0.7,1.4]={wide:.4f} (<=0.15), sup_err[0.9,1.3]={core:.4f} (<=0.10), "
        f"runtime={runtime:.1f}s (<60)",
    )


def test_a02_perfect_reconstruction():
    report("a02 reconstruction db1..db10 at 2^12", *SELFTEST["perfect-reconstruction"]())


def test_a03_filter_validity():
    report("a03 filter sums and shift orthonormality", *SELFTEST["filter-qmf"]())


def test_a04_kernel_density_maxima():
    report("a04 kernel maxima equal 1 at stated locations", *SELFTEST["kernel-maxima"]())


def test_a05_threshold_roots():
    kernels = [
        ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
        ShiftedGammaKernel(alpha0=0.0, nu=1.0, beta=3.0),
        ShiftedPoissonKernel(alpha0=0.3, c=1.0),
    ]
    # c <= ln 2: the K = 0 atom at alpha0 is already >= 0, so rho has no
    # left zero, alpha* is 0 and validity switches at alpha0 = 0
    with pytest.raises(KernelValidityError, match="alpha0 <= alpha"):
        ShiftedPoissonKernel(alpha0=0.0, c=0.5)
    zero = kernel_validity(ShiftedPoissonKernel(alpha0=5e-324, c=0.5)) == 0.0
    worst = 0.0
    for kernel in kernels:
        a = kernel.alpha_star()
        if isinstance(kernel, ShiftedGammaKernel):
            nu, beta = kernel.nu, kernel.beta
            res = 1.0 + nu * np.log2(-a) + beta * LOG2E * a + nu * np.log2(beta * np.e / nu)
        else:
            res = 1.0 - kernel.c * LOG2E - a * np.log2(kernel.c * np.e / (-a))
        worst = max(worst, abs(float(res)))
    unit = ShiftedPoissonKernel(alpha0=0.3, c=1.0).alpha_star()
    near = abs(unit - (-0.090)) <= 1e-3
    frozen = abs(unit - ALPHA_STAR_POISSON_1) <= 1e-9
    ok = worst < 1e-10 and near and frozen and zero
    report(
        "a05 threshold roots",
        ok,
        f"max_residual={worst:.2e} (<1e-10), poisson(c=1) alpha*={unit:.6f} "
        f"(within 0.001 of -0.090: {near}, matches bisection oracle: {frozen}), "
        f"poisson(c=0.5) alpha* is 0: {zero}",
    )


def test_a06_sampler_fidelity():
    law = scale_law_from_spectrum(parabola_curve(), 12)
    u = _uniforms(606, 100_000)
    alpha = sample_alphas(law, u)
    finite = np.isfinite(alpha)
    cond = lambda v: np.interp(v, law.alpha_grid, law.cdf) / law.cdf[-1]
    ks = float(stats.kstest(alpha[finite], cond).statistic)

    glaw = scale_law_from_kernel(GaussianKernel(m=1.0, sigma=0.5), 12)
    draws = sample_alphas(glaw, _uniforms(607, 100_000))
    mean_tol = 4 * 0.5 / math.sqrt(12 * 100_000)
    mean_err = abs(float(draws.mean()) - 1.0)
    ok = ks <= 0.01 and mean_err <= mean_tol
    report(
        "a06 sampler fidelity at j=12",
        ok,
        f"KS={ks:.5f} (<=0.01), gaussian mean_err={mean_err:.6f} (<={mean_tol:.6f})",
    )


def test_a07_spectrum_density_identity():
    report("a07 density round trip reproduces the spectrum", *SELFTEST["spectrum-identity"]())


def test_a08_monofractal_end_to_end():
    x = synthesize(SynthesisConfig(J=18, source=DiracKernel(H=0.8), wavelet_order=10, seed=0))
    res = analyze_pyramid(forward_dwt(x, daubechies_filter(10)))
    q = res.tau_curve.q_grid
    band = (q >= -2.0) & (q <= 5.0)
    tau_err = float(np.max(np.abs(res.tau_curve.values[band] - (0.8 * q[band] - 1.0))))
    sp = res.spectrum
    peak_h = float(sp.h_grid[np.nanargmax(sp.d2)])
    q_c = sp.meta["q_c"]
    q_c_err = abs(q_c - 1.25)
    ok = tau_err <= 0.01 and abs(peak_h - 0.8) <= 0.05 and q_c_err <= 0.02
    report(
        "a08 monofractal H=0.8 end to end (J=18)",
        ok,
        f"tau_err={tau_err:.2e} (<=0.01), d2 peak at h={peak_h:.3f} (0.8+-0.05), "
        f"q_c={q_c:.6f} (1.25+-0.02)",
    )


def test_a09_estimator_ordering_across_corpus():
    # d2 <= d1 + 0.05 wherever both estimates report spectrum: d2 present
    # (non-NaN) and d1 nonnegative (negative Legendre values mean the
    # formalism reports no singularities there).
    corpus = [
        ("parabola", parabola_curve(), (1, 9, 11)),
        ("gaussian", GaussianKernel(m=1.0, sigma=0.5), (1, 2, 10)),
        ("gamma", ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0), (1, 4, 8)),
        ("poisson", ShiftedPoissonKernel(alpha0=0.3, c=1.0), (2, 7, 9)),
        ("flat", FlatLaw(0.7), (0, 1, 2)),
    ]
    filt = daubechies_filter(10)
    worst = -math.inf
    worst_tag = ""
    for name, source, seeds in corpus:
        for seed in seeds:
            x = synthesize(SynthesisConfig(J=16, source=source, wavelet_order=10, seed=seed))
            sp = analyze_pyramid(forward_dwt(x, filt)).spectrum
            both = np.isfinite(sp.d2) & (sp.d1 >= 0.0)
            assert both.any(), f"{name} seed {seed}: estimators share no support"
            gap = float(np.max(sp.d2[both] - sp.d1[both]))
            if gap > worst:
                worst, worst_tag = gap, f"{name} seed {seed}"
    ok = worst <= 0.05
    report(
        "a09 large-deviation <= Legendre + 0.05 across corpus",
        ok,
        f"worst gap={worst:+.4f} at {worst_tag} over 15 signals (<=0.05)",
    )


def test_a10_flat_generator_occupancy():
    counts = [
        np.count_nonzero(generate_coefficients(SynthesisConfig(J=13, source=FlatLaw(0.7), seed=s)).levels[12])
        for s in range(200)
    ]
    mean = float(np.mean(counts))
    p = 12.0 / 4096.0
    tol = 3.0 * math.sqrt(4096.0 * p * (1.0 - p) / 200.0)
    ok = abs(mean - 12.0) <= tol
    report("a10 flat occupancy at scale 12", ok, f"mean={mean:.3f} vs 12 (+-{tol:.3f}, 3 SE over 200 seeds)")


def test_a11_partition_exponent_at_zero():
    details = []
    ok = True
    for name, source in (("gaussian", GaussianKernel(m=1.0, sigma=0.5)), ("dirac", DiracKernel(H=0.8))):
        x = synthesize(SynthesisConfig(J=14, source=source, wavelet_order=10, seed=0))
        pyr = forward_dwt(x, daubechies_filter(10))
        assert all(np.all(level != 0.0) for level in pyr.levels[1:]), f"{name}: zero coefficient"
        tau = structure_function(AlphaField.from_pyramid(pyr))
        tau0 = float(tau.values[tau.q_grid == 0.0][0])
        good = abs(tau0 + 1.0) <= 0.01
        ok = ok and good
        details.append(f"{name}: tau(0)={tau0:.6f}")
    report("a11 tau(0) = -1 for dense signals", ok, "; ".join(details) + " (+-0.01)")


def test_a12_synthesis_determinism(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mode=kernel\nkernel=gaussian\nm=1.0\nsigma=0.5\nJ=12\nseed=3\n")
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["synth", str(cfg), "--out", str(tmp_path / "b")]) == 0
    same_files = (tmp_path / "a" / "signal.rws").read_bytes() == (tmp_path / "b" / "signal.rws").read_bytes()
    c = SynthesisConfig(J=12, source=GaussianKernel(m=1.0, sigma=0.5), seed=3)
    same_arrays = synthesize(c).tobytes() == synthesize(c).tobytes()
    ok = same_files and same_arrays
    report("a12 determinism", ok, f"byte-identical files: {same_files}, identical arrays: {same_arrays}")


# sha256 of synthesize(SynthesisConfig(J=12, source, wavelet_order, seed=5))
# as float64 bytes; any change to the exponent laws, the samplers or the
# inverse transform shows up here.
SYNTH_SHA256 = {
    ("parabola", 3): "e4b22979a1931efd735d1e8e75da1493c6c16702e81c0c40d607b922b1333c46",
    ("gaussian", 3): "1f4be5209d58ee25aacdda11551605e90bbea5891f385bc49991d00bdd352d62",
    ("gamma", 3): "e700aeba5c923aa09d03a34a5469d6e98c10bd0ca27831b116c3e018064e78a2",
    ("poisson", 3): "ddeefd0a2a2d2b1958624aa2e2f5f9f450a0c97e076c00d95f52a0dcc3211f6c",
    ("dirac", 3): "4206b25d2a06d3e1abf075b81063a50d6221d8f326db1881e02a29f25207de8a",
    ("flat", 3): "827bd2c895c33cb17cf827ea4b12bd99b07b65452502189b47e5e1421c036c41",
    ("parabola", 10): "7b093908d8cc715fc419759cb47a555f827238d36f51da4262f38b820a0244ae",
    ("gaussian", 10): "338a201c8e7f12a7df2f2ddecbf79b2ad07086cd7cc7aaec04a9b9ac1de71f79",
    ("gamma", 10): "40825eb6f71f89c77b302a4848825804a89f487f70c1ee76cd0849a2c0465f3f",
    ("poisson", 10): "71dd50cca50ac9f43536bf91eebdca23bd55be9ee10ef32b66b9ce5b1f1b968e",
    ("dirac", 10): "69bb032dabd3c3aa7f4473a77e92f0491c2bc25f1b8bbb185f90de4b5caff15f",
    ("flat", 10): "3ecab8dd9301ba354e403de8bfa911163d83a58e4bef31c632553282bb28a2fd",
}

DIGEST_SOURCES = {
    "parabola": parabola_curve(),
    "gaussian": GaussianKernel(m=1.0, sigma=0.5),
    "gamma": ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
    "poisson": ShiftedPoissonKernel(alpha0=0.0, c=1.0),
    "dirac": DiracKernel(H=0.8),
    "flat": FlatLaw(0.7),
}


@pytest.mark.parametrize(("source", "order"), sorted(SYNTH_SHA256))
def test_a12_synthesis_digest(source, order):
    cfg = SynthesisConfig(J=12, source=DIGEST_SOURCES[source], wavelet_order=order, seed=5)
    got = hashlib.sha256(synthesize(cfg).tobytes()).hexdigest()
    report(f"a12 digest {source} db{order}", got == SYNTH_SHA256[source, order], f"sha256={got}")


def stratified_pyramid(J, source):
    """The noise-free realization of a source: at each scale j >= 1 the
    uniforms (k + 1/2) / 2^j, k < 2^j, go through the scale law synthesis
    samples, so every count of exponents is 2^j F_j(alpha) to within one.
    Coefficients are 2^(-j alpha) and level 0 holds c00; no wavelet is used."""
    law, c00 = validate_config(SynthesisConfig(J=J, source=source))
    levels = [np.array([c00])]
    for j in range(1, J):
        u = (np.arange(2**j) + 0.5) / 2**j
        levels.append(np.exp2(-j * law(j).sample(u)))
    return CoefficientPyramid(J=J, levels=levels)


def test_a14_noise_free_oracle_within_a01_and_a09_bounds():
    # the estimators' own bias, with no sampling noise: a01's parabola at
    # J=20 and each a09 source at J=16 must meet those gates' bounds
    sp = analyze_pyramid(stratified_pyramid(20, parabola_curve())).spectrum

    def sup_err(lo, hi):
        m = (sp.h_grid >= lo) & (sp.h_grid <= hi)
        if not np.all(np.isfinite(sp.d2[m])):
            return math.inf
        return float(np.max(np.abs(sp.d2[m] - (sp.h_grid[m] - 0.5) ** 2)))

    wide = sup_err(0.7, 1.4)
    core = sup_err(0.9, 1.3)
    gaps = {}
    for name, source in (
        ("parabola", parabola_curve()),
        ("gaussian", GaussianKernel(m=1.0, sigma=0.5)),
        ("gamma", ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0)),
        ("poisson", ShiftedPoissonKernel(alpha0=0.3, c=1.0)),
        ("flat", FlatLaw(0.7)),
    ):
        est = analyze_pyramid(stratified_pyramid(16, source)).spectrum
        both = np.isfinite(est.d2) & (est.d1 >= 0.0)
        assert both.any(), f"{name}: estimators share no support"
        gaps[name] = float(np.max(est.d2[both] - est.d1[both]))
    ok = wide <= 0.15 and core <= 0.10 and max(gaps.values()) <= 0.05
    report(
        "a14 noise-free oracle (stratified uniforms, no wavelet)",
        ok,
        f"parabola J=20 sup_err[0.7,1.4]={wide:.4f} (<=0.15), sup_err[0.9,1.3]={core:.4f} "
        f"(<=0.10); J=16 max(d2-d1): "
        + ", ".join(f"{name} {gap:+.3f}" for name, gap in gaps.items()) + " (<=0.05)",
    )
