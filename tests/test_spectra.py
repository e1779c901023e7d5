"""Kernel densities, validity thresholds, and the density-to-spectrum map."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rws import cli, spectra
from rws import (
    DiracKernel,
    EmptySpectrumError,
    FlatSpectrumError,
    GaussianKernel,
    KernelValidityError,
    LogDensity,
    MathValidityError,
    RwsError,
    ShiftedGammaKernel,
    ConfigError,
    ShiftedPoissonKernel,
    SpectrumCurve,
    SynthesisConfig,
    UnsupportedVariantError,
    check_admissible,
    curve_from_function,
    curve_from_samples,
    gaussian_threshold,
    kernel_validity,
    spectrum_from_rho,
    synthesize,
    validate_config,
)
from rws.fileio import parse_key_values

LOG2E = np.log2(np.e)

# Frozen by independent bracketed bisection of the defining equations
# (200 halvings, residual < 1e-15 at the root).
ALPHA_STAR_GAMMA_1_3 = -0.077320317662178145
ALPHA_STAR_GAMMA_15_4 = -0.11953126090233931
ALPHA_STAR_POISSON_1 = -0.090057199312764347


def parabola_curve():
    return curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5)


# ---------------------------------------------------------------------------
# kernels

def test_gaussian_validity_threshold():
    assert abs(gaussian_threshold(1.0) - np.sqrt(2.0 * np.log(2.0))) < 1e-15
    kernel_validity(GaussianKernel(m=1.0, sigma=0.5))
    with pytest.raises(KernelValidityError, match=r"^m <= alpha\*\(sigma\) = 1\.17741002252$"):
        kernel_validity(GaussianKernel(m=1.0, sigma=1.0))
    with pytest.raises(KernelValidityError, match="^sigma"):
        kernel_validity(GaussianKernel(m=1.0, sigma=0.0))
    # exact boundary is rejected, strictly above passes
    s = 0.5
    with pytest.raises(KernelValidityError):
        kernel_validity(GaussianKernel(m=gaussian_threshold(s), sigma=s))
    kernel_validity(GaussianKernel(m=gaussian_threshold(s) + 1e-9, sigma=s))


@pytest.mark.parametrize(
    ("kernel", "expected"),
    [
        (ShiftedGammaKernel(alpha0=0.0, nu=1.0, beta=3.0), ALPHA_STAR_GAMMA_1_3),
        (ShiftedGammaKernel(alpha0=0.0, nu=1.5, beta=4.0), ALPHA_STAR_GAMMA_15_4),
        (ShiftedPoissonKernel(alpha0=0.0, c=1.0), ALPHA_STAR_POISSON_1),
    ],
)
def test_alpha_star_frozen_values(kernel, expected):
    got = kernel.alpha_star()
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize("kernel", [
    ShiftedPoissonKernel(alpha0=0.1, c=0.5),
    ShiftedPoissonKernel(alpha0=0.1, c=0.1),
    ShiftedGammaKernel(alpha0=0.1, nu=1e-4, beta=4.0),
    DiracKernel(H=0.8),
], ids=repr)
def test_alpha_star_without_a_left_zero_is_zero(kernel):
    # a poisson with c <= ln 2 is already >= 0 at its shift point, a gamma's
    # zero can underflow, and a dirac has no zero: alpha* is +0.0, never -0.0
    star = kernel.alpha_star()
    assert star == 0.0 and np.copysign(1.0, star) == 1.0


@pytest.mark.parametrize(
    "kernel",
    [
        ShiftedGammaKernel(alpha0=0.0, nu=1.0, beta=3.0),
        ShiftedGammaKernel(alpha0=0.0, nu=1.5, beta=4.0),
        ShiftedGammaKernel(alpha0=0.0, nu=0.3, beta=9.0),
        ShiftedPoissonKernel(alpha0=0.0, c=1.0),
        ShiftedPoissonKernel(alpha0=0.0, c=0.7),   # just above ln 2
        ShiftedPoissonKernel(alpha0=0.0, c=3.0),
    ],
)
def test_alpha_star_is_a_root(kernel):
    # plug the returned threshold back into the defining equation
    a = kernel.alpha_star()
    assert a < 0
    if isinstance(kernel, ShiftedGammaKernel):
        nu, beta = kernel.nu, kernel.beta
        res = 1.0 + nu * np.log2(-a) + beta * LOG2E * a + nu * np.log2(beta * np.e / nu)
    else:
        res = 1.0 - kernel.c * LOG2E - a * np.log2(kernel.c * np.e / (-a))
    assert abs(res) < 1e-10


# peak() rounds below h_min(); peak() a few ulps above h_min(), where rho(a)/a
# still rises; a poisson shift point too large to hold c; gaussians whose
# alpha* rounds away against m (h_min = m = peak), so that alpha_t rounds
# an ulp off m and h_max comes out negative (the second sized its grid from it
# and ended in a traceback)
UNRESOLVED_OFFSETS = [
    ShiftedGammaKernel(alpha0=562.8113728287591, nu=0.0061029059020793405, beta=1.1391767324151265e68),
    ShiftedGammaKernel(alpha0=6.231732261890946e-274, nu=1.620432620933933e-05,
                       beta=4.368874533745207e282),
    ShiftedPoissonKernel(alpha0=1e20, c=1.0),
    GaussianKernel(m=1e17, sigma=1.0),
    GaussianKernel(m=5.0389267553610016e+23, sigma=244383.01128204848),
]


# the location is alpha0, or m for the gaussian
@pytest.mark.parametrize("kernel", UNRESOLVED_OFFSETS,
                         ids=["gamma-below", "gamma-ulps", "poisson-far", "gaussian-m-1e17", "gaussian-far"])
def test_a_mode_offset_below_the_resolution_of_alpha0_is_refused(kernel):
    with pytest.raises(MathValidityError, match=r"mode offset of \((nu|c|sigma)=.* of (alpha0|m) = "):
        spectrum_from_rho(kernel)
    with pytest.raises(MathValidityError, match="mode offset"):
        synthesize(SynthesisConfig(J=5, source=kernel))


def test_a_tangent_equation_zero_at_the_peak_is_its_root(monkeypatch):
    # f(a) = rho'(a) a - rho(a) made 1 - a: f(peak) == 0 is a root, not an
    # unresolved offset, and alpha_t is the peak (1.0, so rho(1) / 1 * 1 is exact)
    k = ShiftedGammaKernel(alpha0=0.5, nu=1.5, beta=3.0)
    monkeypatch.setattr(ShiftedGammaKernel, "rho_prime", lambda self, a: (self.rho(a) + 1.0 - a) / a)
    assert k.ratio_max()[1] == k.peak() == 1.0


def test_alpha_star_of_gaussian_and_dirac():
    assert GaussianKernel(m=1.0, sigma=0.5).alpha_star() == 0.5 * np.sqrt(2.0 * np.log(2.0))
    assert DiracKernel(H=0.8).alpha_star() == 0.0


def test_gamma_validity_uses_threshold():
    kernel_validity(ShiftedGammaKernel(alpha0=-0.07, nu=1.0, beta=3.0))
    with pytest.raises(KernelValidityError, match="alpha0 <= alpha"):
        kernel_validity(ShiftedGammaKernel(alpha0=-0.08, nu=1.0, beta=3.0))
    with pytest.raises(KernelValidityError):
        kernel_validity(ShiftedGammaKernel(alpha0=0.0, nu=-1.0, beta=3.0))


def test_poisson_validity_uses_threshold():
    kernel_validity(ShiftedPoissonKernel(alpha0=0.0, c=1.0))
    with pytest.raises(KernelValidityError, match="alpha0 <= alpha"):
        kernel_validity(ShiftedPoissonKernel(alpha0=-0.0901, c=1.0))
    # for c <= ln 2 the density is >= 0 at its shift point: validity switches at 0
    kernel_validity(ShiftedPoissonKernel(alpha0=0.1, c=0.5))
    for alpha0 in (0.0, -1.5):
        with pytest.raises(KernelValidityError, match=r"alpha0 <= alpha\*\(c\) = 0$"):
            kernel_validity(ShiftedPoissonKernel(alpha0=alpha0, c=0.5))
    with pytest.raises(KernelValidityError):
        kernel_validity(ShiftedPoissonKernel(alpha0=0.0, c=0.0))


THRESHOLD_KERNELS = [
    ShiftedGammaKernel(alpha0=0.0, nu=1.0, beta=3.0),
    ShiftedGammaKernel(alpha0=0.0, nu=1.5, beta=4.0),
    ShiftedGammaKernel(alpha0=0.0, nu=0.3, beta=9.0),
    ShiftedPoissonKernel(alpha0=0.0, c=1.0),
    ShiftedPoissonKernel(alpha0=0.0, c=3.0),
]


@pytest.mark.parametrize("alpha0", [0.0, 0.3])
@pytest.mark.parametrize("kernel", THRESHOLD_KERNELS, ids=repr)
def test_alpha_star_is_minus_the_left_zero_of_the_shifted_density(kernel, alpha0):
    # h_min and alpha* are one zero of one density, seen from alpha0 and from 0
    k = dataclasses.replace(kernel, alpha0=alpha0)
    star = k.alpha_star()
    assert abs((k.h_min() - alpha0) + star) < 1e-12
    assert abs(k._rho_shifted(-star)) < 1e-12


@pytest.mark.parametrize("kernel", THRESHOLD_KERNELS + [
    GaussianKernel(m=1.0, sigma=0.5),
    DiracKernel(H=0.8),
    ShiftedPoissonKernel(alpha0=0.1, c=0.5),
], ids=repr)
def test_validity_switches_at_alpha_star(kernel):
    # the location parameter is each family's first field
    location = dataclasses.fields(kernel)[0].name
    star = kernel.alpha_star()
    with pytest.raises(KernelValidityError, match=rf"^{location} <= alpha\*"):
        kernel_validity(dataclasses.replace(kernel, **{location: star}))
    above = dataclasses.replace(kernel, **{location: np.nextafter(star, np.inf)})
    kernel_validity(above)
    assert above.h_min() > 0


@pytest.mark.parametrize("alpha0", [0.1, 0.3])
def test_gamma_zero_below_resolution_walks_its_bracket_to_the_shift_point(alpha0):
    # nu = 0.01 puts the left zero ~1e-33 right of alpha0, below one ulp of
    # it: the bracket walk must end at alpha0 itself (0.3 has an odd last
    # mantissa bit, where alpha0 + ulp/2 rounds up to alpha0 + ulp)
    k = ShiftedGammaKernel(alpha0=alpha0, nu=0.01, beta=4.0)
    assert alpha0 <= k.h_min() <= alpha0 + 1e-15 + 8.9e-16 * alpha0
    assert -1e-15 < k.alpha_star() <= 0.0
    kernel_validity(k)


@pytest.mark.parametrize(("nu", "star"), [
    (1e-3, -8.583212461015277e-306),   # a normal float, bracketed by the walk's last two steps
    (9.85e-4, -2.2022821631693e-310),  # subnormal: 1e-15 of the bracket rounds below the floor
    (9.6e-4, -2.3605e-318),            # subnormal: 1e-15 of the bracket rounds to 0
    (9.4e-4, 0.0),
    (3e-4, 0.0),
    (1e-4, 0.0),
    (1e-5, 0.0),
])
def test_gamma_alpha_star_below_the_least_subnormal_is_zero(nu, star):
    # from nu ~ 9.85e-4 down the left zero of the shifted density is
    # subnormal, solved to the tolerance floor, and from nu ~ 9.4e-4 down it
    # underflows: the walk's step halves to 0.0 and alpha* is 0, without
    # evaluating log2(0)
    k = ShiftedGammaKernel(alpha0=0.1, nu=nu, beta=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert k.alpha_star() == star
        if star:   # the shifted density changes sign at the zero's float
            below, above = k._rho_shifted(np.array([np.nextafter(-star, 0.0), np.nextafter(-star, 1.0)]))
            assert below < 0.0 < above


@pytest.mark.parametrize(("family", "params"), [
    (GaussianKernel, dict(m=np.inf, sigma=0.5)),
    (GaussianKernel, dict(m=1.0, sigma=np.nan)),
    (ShiftedGammaKernel, dict(alpha0=0.1, nu=np.nan, beta=4.0)),
    (ShiftedPoissonKernel, dict(alpha0=0.3, c=np.inf)),
    (DiracKernel, dict(H=np.inf)),
], ids=["gaussian-m-inf", "gaussian-sigma-nan", "gamma-nu-nan", "poisson-c-inf", "dirac-H-inf"])
def test_non_finite_parameters_are_rejected_before_any_root_solve(family, params, monkeypatch):
    monkeypatch.setattr(spectra, "_root", None)   # a root solve would raise TypeError
    name = next(n for n, v in params.items() if not np.isfinite(v))
    with pytest.raises(KernelValidityError, match=f"^{name} = .* is not finite$"):
        family(**params)


# each family with values that it refuses when made: non-finite, outside its
# domain, and at or below its threshold
BAD_KERNEL_VALUES = [
    (GaussianKernel(m=1.0, sigma=0.5), dict(sigma=-0.5), "^sigma <= 0"),
    (GaussianKernel(m=1.0, sigma=0.5), dict(m=0.5), r"^m <= alpha\*\(sigma\)"),
    (GaussianKernel(m=1.0, sigma=0.5), dict(m=-np.inf), "^m = -inf is not finite$"),
    (GaussianKernel(m=1.0, sigma=0.5), dict(sigma=1e300), r"^sigma: 2 sigma\^2 is not a normal float$"),
    (ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0), dict(beta=0.0), "^beta <= 0$"),
    (ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0), dict(alpha0=-0.2), r"^alpha0 <= alpha\*\(nu, beta\)"),
    (ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0), dict(nu=np.inf), "^nu = inf is not finite$"),
    (ShiftedPoissonKernel(alpha0=0.3, c=1.0), dict(c=-1.0), "^c <= 0$"),
    (ShiftedPoissonKernel(alpha0=0.3, c=1.0), dict(alpha0=-0.1), r"^alpha0 <= alpha\*\(c\)"),
    (ShiftedPoissonKernel(alpha0=0.3, c=1.0), dict(alpha0=np.nan), "^alpha0 = nan is not finite$"),
    (DiracKernel(H=0.8), dict(H=-0.8), r"^H <= alpha\* = 0$"),
    (DiracKernel(H=0.8), dict(H=np.nan), "^H = nan is not finite$"),
]


@pytest.mark.parametrize(("kernel", "bad", "match"), BAD_KERNEL_VALUES,
                         ids=[f"{type(k).__name__}-{n}={v}" for k, b, _ in BAD_KERNEL_VALUES
                              for n, v in b.items()])
def test_every_family_refuses_bad_values_when_made(kernel, bad, match):
    with pytest.raises(KernelValidityError, match=match):
        type(kernel)(**{**dataclasses.asdict(kernel), **bad})
    with pytest.raises(KernelValidityError, match=match):
        dataclasses.replace(kernel, **bad)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(kernel, *next(iter(bad.items())))


# closed forms whose terms overflow, underflow or cancel: each reached the
# root solver and ended there in a traceback
BEYOND_FLOAT_PRECISION = [
    (ShiftedGammaKernel, dict(alpha0=0.1, nu=1e20, beta=3.0)),   # f(lo) and f(hi) of one sign
    (ShiftedGammaKernel, dict(alpha0=0.1, nu=1e-300, beta=1e100)),   # a NaN value of f
    (ShiftedGammaKernel, dict(alpha0=0.1, nu=1e100, beta=1e-300)),   # math.log2(0)
    (ShiftedGammaKernel, dict(alpha0=1.0049832833225104e-20, nu=3.042441400855942e+29,
                              beta=4.3769152727561215e+24)),   # ZeroDivisionError
    (ShiftedPoissonKernel, dict(alpha0=284790.0352470305, c=1.7539621864850382e+28)),   # one sign
]


@pytest.mark.parametrize(("family", "params"), BEYOND_FLOAT_PRECISION,
                         ids=["gamma-nu-1e20", "gamma-nu-1e-300", "gamma-beta-1e-300", "gamma-nu-3e29",
                              "poisson-c-2e28"])
def test_a_closed_form_beyond_float_precision_is_refused_before_any_root_solve(family, params, monkeypatch):
    monkeypatch.setattr(spectra, "_root", None)   # a root solve would raise TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelValidityError, match=r"^rho at the mode of \((nu|c)=.*\) is .*, not 1: "
                                                      "its closed form is beyond float precision$"):
            family(**params)


def test_validity_rejects_non_kernels():
    with pytest.raises(UnsupportedVariantError, match="unknown kernel"):
        kernel_validity(object())


def test_dirac_validity():
    kernel_validity(DiracKernel(H=0.8))
    with pytest.raises(KernelValidityError, match=r"^H <= alpha\* = 0$"):
        kernel_validity(DiracKernel(H=0.0))


@pytest.mark.parametrize(
    "kernel",
    [
        GaussianKernel(m=1.0, sigma=0.5),
        ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
        ShiftedPoissonKernel(alpha0=0.0, c=1.0),
        DiracKernel(H=0.7),
    ],
)
def test_rho_peak_value_is_one(kernel):
    peak = kernel.peak()
    assert abs(float(kernel.rho(peak)) - 1.0) < 1e-12
    scan = peak + np.linspace(-0.01, 0.01, 201)
    assert float(np.max(kernel.rho(scan))) <= 1.0 + 1e-12


def test_rho_peak_locations():
    assert GaussianKernel(m=1.3, sigma=0.4).peak() == 1.3
    assert ShiftedGammaKernel(alpha0=0.2, nu=1.0, beta=4.0).peak() == 0.2 + 0.25
    assert ShiftedPoissonKernel(alpha0=0.3, c=1.0).peak() == 1.3
    assert DiracKernel(H=0.8).peak() == 0.8


def test_rho_scalar_and_vector_forms():
    k = GaussianKernel(m=1.0, sigma=0.5)
    v = k.rho(np.array([0.5, 1.0, 1.5]))
    assert v.shape == (3,)
    assert isinstance(k.rho(1.0), float)
    assert abs(v[1] - 1.0) < 1e-15
    assert abs(v[0] - v[2]) < 1e-15  # symmetric about the mean


def test_rho_is_minus_inf_left_of_shift():
    g = ShiftedGammaKernel(alpha0=0.5, nu=1.0, beta=3.0)
    p = ShiftedPoissonKernel(alpha0=0.5, c=1.0)
    for k in (g, p):
        assert k.rho(0.4) == -np.inf
        assert np.isfinite(k.rho(0.6))
    assert g.rho(0.5) == -np.inf
    # the K = 0 atom of Poisson(jc) sits at the shift point itself
    assert p.rho(0.5) == 1.0 - LOG2E
    assert p.rho(np.array([0.4, 0.5]))[1] == 1.0 - LOG2E


def test_kernel_h_min_gaussian_closed_form():
    k = GaussianKernel(m=1.0, sigma=0.5)
    expected = 1.0 - gaussian_threshold(0.5)
    assert abs(k.h_min() - expected) < 1e-12


def test_kernel_h_min_is_left_zero_of_rho():
    for k in (
        ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
        ShiftedPoissonKernel(alpha0=0.3, c=1.0),
    ):
        hm = k.h_min()
        assert abs(float(k.rho(hm))) < 1e-9
        assert float(k.rho(hm - 1e-6)) < 0 or k.rho(hm - 1e-6) == -np.inf


def test_kernel_h_min_poisson_small_c_is_shift_point():
    # density is already nonnegative at alpha0+ when c <= ln 2
    k = ShiftedPoissonKernel(alpha0=0.4, c=0.5)
    assert k.h_min() == 0.4


# ---------------------------------------------------------------------------
# in-package roots: spectra._root is scipy's brentq, bit for bit

def _outcome(solve, f, lo, hi, xtol):
    """The root's type and bits, or the class of the exception raised."""
    try:
        x = solve(f, lo, hi, xtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    return type(x), x.hex()


def _brentq(f, lo, hi, xtol):
    from scipy.optimize import brentq

    return brentq(f, lo, hi, xtol=xtol, rtol=spectra._ROOT_RTOL, maxiter=spectra._ROOT_MAXITER)


def _seeded_brackets(n):
    """n (f, lo, hi, xtol, maxiter) draws from a fixed seed: tanh, cubic,
    exp and atan families, some scaled by 10^U(-250, 250) (products of
    their values under- or overflow), some returning numpy scalars or NaN
    right of a point, brackets with and without a sign change, xtol
    10^U(-300, -3), 10^U(-3, 0.5) or <= 0, and a step cap of 3000 or
    1-19."""
    rng = np.random.default_rng(27)
    for _ in range(n):
        r, w = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
        scale = 10.0 ** rng.uniform(-250.0, 250.0) if rng.random() < 0.3 else 1.0
        g = [lambda x, w=w, r=r: math.tanh(w * (x - r)), lambda x, r=r: (x - r) ** 3 + 0.1 * (x - r),
             lambda x, r=r: math.exp(x - r) - 1.0, lambda x, r=r: math.atan(x - r)][rng.integers(4)]
        kind = rng.integers(10)
        if kind == 0:
            f = lambda x, g=g, s=np.float64(scale): s * np.float64(g(x))
        elif kind == 1:
            f = lambda x, g=g, s=scale, cut=rng.uniform(-10.0, 10.0): math.nan if x > cut else s * g(x)
        else:
            f = lambda x, g=g, s=scale: s * g(x)
        lo = rng.uniform(-10.0, 0.0) if rng.random() < 0.8 else rng.uniform(-3.0, 3.0)
        u = rng.random()
        xtol = 10.0 ** (rng.uniform(-300.0, -3.0) if u < 0.7 else rng.uniform(-3.0, 0.5))
        if u > 0.97:
            xtol = float(rng.choice([0.0, -1.0]))
        yield f, lo, rng.uniform(0.0, 10.0), xtol, 3000 if rng.random() < 0.8 else int(rng.integers(1, 20))


def test_root_is_brentq_bit_for_bit_on_a_seeded_corpus(monkeypatch):
    outcomes = set()
    for f, lo, hi, xtol, maxiter in _seeded_brackets(10_000):
        monkeypatch.setattr(spectra, "_ROOT_MAXITER", maxiter)
        expected = _outcome(_brentq, f, lo, hi, xtol)
        assert _outcome(spectra._root, f, lo, hi, xtol) == expected, (lo, hi, xtol, maxiter)
        outcomes.add(expected if isinstance(expected, type) else float)
    assert outcomes == {float, ValueError, RuntimeError}


@pytest.mark.parametrize(("r", "lo", "hi", "xtol"), [
    (-2.2, -8.7, 9.4, 0.99), (-2.32, -6.7, 3.0, 0.63), (-1.33, -3.4, 6.7, 0.2), (0.24, -8.5, 5.1, 1.5),
])
def test_root_is_brentq_where_a_coarse_tolerance_decides_the_step(r, lo, hi, xtol):
    # brackets where the short-step test's margin, 3 |sbis| - delta, picks
    # interpolation or bisection, which random brackets rarely meet
    f = lambda x: math.exp(x - r) - 1.0
    assert _outcome(spectra._root, f, lo, hi, xtol) == _outcome(_brentq, f, lo, hi, xtol)


# every gamma and poisson kernel a test or the benchmark pins
PINNED_SHIFTED_KERNELS = [
    ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
    ShiftedGammaKernel(alpha0=0.1, nu=0.01, beta=4.0),
    ShiftedGammaKernel(alpha0=0.1, nu=1e-3, beta=4.0),
    ShiftedGammaKernel(alpha0=0.1, nu=9.6e-4, beta=4.0),
    ShiftedGammaKernel(alpha0=0.0, nu=1.0, beta=3.0),
    ShiftedGammaKernel(alpha0=0.0, nu=0.3, beta=9.0),
    ShiftedGammaKernel(alpha0=0.04289795560504386, nu=0.031511520870867185, beta=0.020426139303159074),
    ShiftedPoissonKernel(alpha0=0.3, c=1.0),
    ShiftedPoissonKernel(alpha0=0.0, c=1.0),
    ShiftedPoissonKernel(alpha0=0.5, c=0.6),
    ShiftedPoissonKernel(alpha0=0.0, c=0.7),
    ShiftedPoissonKernel(alpha0=0.0, c=3.0),
    ShiftedPoissonKernel(alpha0=0.0167, c=0.11),
    ShiftedPoissonKernel(alpha0=1e-300, c=0.5),
    ShiftedPoissonKernel(alpha0=82.38766578102307, c=0.0027195009230881685),
]


def test_root_is_brentq_bit_for_bit_on_every_pinned_kernel_solve(monkeypatch):
    calls = []
    solve = spectra._root
    monkeypatch.setattr(spectra, "_root", lambda *args: calls.append(args) or solve(*args))
    for kernel in PINNED_SHIFTED_KERNELS:   # made again inside the recording: alpha* is solved when made
        spectrum_from_rho(dataclasses.replace(kernel))
    assert len(calls) >= len(PINNED_SHIFTED_KERNELS)
    for f, lo, hi, xtol in calls:
        assert _outcome(solve, f, lo, hi, xtol) == _outcome(_brentq, f, lo, hi, xtol), (lo, hi, xtol)


def _run_kernel_command(kernel, tmp_path):
    params = [f"{f.name}={getattr(kernel, f.name)!r}" for f in dataclasses.fields(kernel)]
    variant = "gamma" if isinstance(kernel, ShiftedGammaKernel) else "poisson"
    assert cli.main(["kernel", variant, *params, "--out", str(tmp_path)]) == 0


# every call that reads alpha* more than once: validity, then h_min for the
# span, then (rws kernel) the printed threshold.  Each makes its kernel (the
# CLI from the parameters), so the count covers the solve when it is made
ALPHA_STAR_READERS = {
    "spectrum_from_rho": lambda kernel, tmp_path: spectrum_from_rho(dataclasses.replace(kernel)),
    "validate_config": lambda kernel, tmp_path: validate_config(
        SynthesisConfig(J=5, source=dataclasses.replace(kernel))),
    "rws kernel": _run_kernel_command,
}


@pytest.mark.parametrize("reader", sorted(ALPHA_STAR_READERS))
@pytest.mark.parametrize("kernel", [
    ShiftedGammaKernel(alpha0=0.1, nu=1.25, beta=4.0),
    ShiftedPoissonKernel(alpha0=0.3, c=1.25),
], ids=["gamma", "poisson"])
def test_alpha_star_is_solved_once_per_call(reader, kernel, monkeypatch, tmp_path):
    # an alpha* solve is the one that brackets the family's shifted density
    density = type(kernel)._rho_shifted
    solved = []
    solve = spectra._root
    monkeypatch.setattr(spectra, "_root", lambda f, *rest: solved.append(f) or solve(f, *rest))
    ALPHA_STAR_READERS[reader](kernel, tmp_path)
    assert sum(getattr(f, "__func__", None) is density for f in solved) == 1


def test_a_kernel_reads_its_one_alpha_star_solve(monkeypatch):
    kernel = ShiftedGammaKernel(alpha0=0.1, nu=1.25, beta=4.0)
    star = kernel.alpha_star()
    assert star == 0.0 - spectra._left_zero(kernel._rho_shifted, kernel._offset())
    # the kept alpha* is no field: manifests (``asdict``), repr and == see
    # only the parameters
    assert sorted(dataclasses.asdict(kernel)) == ["alpha0", "beta", "nu"]
    assert repr(kernel) == "ShiftedGammaKernel(alpha0=0.1, nu=1.25, beta=4.0)"
    assert kernel == ShiftedGammaKernel(alpha0=0.1, nu=1.25, beta=4.0)
    # later reads solve nothing and see that float
    monkeypatch.setattr(spectra, "_root", None)
    assert kernel.alpha_star() == star and kernel.h_min() == 0.1 - star


# ---------------------------------------------------------------------------
# admissibility

def test_parabola_curve_is_admissible():
    violations = check_admissible(parabola_curve())
    assert not violations, violations


def test_symmetric_parabola_is_not_admissible():
    curve = curve_from_function(lambda h: 1.0 - ((h - 1.0) / 0.5) ** 2, 0.5, 1.5)
    violations = check_admissible(curve)
    assert violations
    joined = "; ".join(violations)
    assert "non-decreasing" in joined or "expected 1" in joined


def test_admissibility_rejects_d_above_one():
    curve = curve_from_function(lambda h: 1.2 * h, 0.1, 1.0)
    violations = check_admissible(curve)
    assert violations
    assert any("exceeds 1" in v for v in violations)


def test_admissibility_rejects_negative_d():
    curve = curve_from_function(lambda h: 2.0 * h - 1.0, 0.25, 1.0)
    violations = check_admissible(curve)
    assert violations
    assert any("negative" in v for v in violations)


def test_admissibility_requires_one_at_h_max():
    curve = curve_from_function(lambda h: 0.9 * h, 0.1, 1.0)
    violations = check_admissible(curve)
    assert violations
    assert any("expected 1" in v for v in violations)


def test_admissibility_rejects_gap_inside_support():
    h = np.array([0.5, 0.75, 1.0])
    d = np.array([0.5, np.nan, 1.0])
    curve = curve_from_samples(h, d)
    violations = check_admissible(curve)
    assert violations
    assert any("absent value inside" in v for v in violations)


def test_chord_spectrum_is_admissible():
    # concave hull of the parabola target: straight line h - 1/2
    curve = curve_from_function(lambda h: h - 0.5, 0.5, 1.5)
    assert not check_admissible(curve)


def test_curve_from_samples_validation():
    with pytest.raises(MathValidityError):
        curve_from_samples(np.array([]), np.array([]))
    with pytest.raises(MathValidityError):
        curve_from_samples(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(MathValidityError):
        curve_from_samples(np.array([-0.5, 1.0]), np.array([0.5, 0.5]))


def test_curve_from_function_span():
    with pytest.raises(MathValidityError, match="h_max < h_min"):
        curve_from_function(lambda h: 1.0, 0.8, 0.7)
    point = curve_from_function(lambda h: 1.0, 0.8, 0.8)
    assert point.h_grid.tolist() == [0.8] and point.d_values.tolist() == [1.0]
    assert not check_admissible(point)


def test_span_is_read_off_the_present_samples():
    curve = curve_from_samples([0.5, 0.75, 1.0], [np.nan, 0.75, 1.0])
    assert (curve.h_min, curve.h_max) == (0.75, 1.0)
    assert not check_admissible(curve)


def test_span_cannot_be_set_apart_from_the_samples():
    curve = curve_from_function(lambda h: h - 0.5, 0.5, 1.5)
    with pytest.raises(AttributeError):
        curve.h_min = 0.75
    with pytest.raises(AttributeError):
        curve.h_max = 1.0


def test_curve_from_function_span_narrows_to_present_samples():
    # a NaN at h_min narrows the span, as in curve_from_samples
    curve = curve_from_function(lambda h: h if h > 0.1 else np.nan, 0.1, 1.0)
    assert curve.h_grid[0] == 0.1 and np.isnan(curve.d_values[0])
    assert (curve.h_min, curve.h_max) == (curve.h_grid[1], 1.0)
    assert not check_admissible(curve)


def test_curve_from_samples_needs_a_present_value():
    with pytest.raises(MathValidityError, match="no present values"):
        curve_from_samples([0.5, 1.0], [np.nan, np.nan])


def test_infinite_grid_points_are_rejected():
    with pytest.raises(MathValidityError, match="finite"):
        curve_from_samples([0.5, np.inf], [0.0, 1.0])
    with pytest.raises(MathValidityError, match="finite"):
        LogDensity([0.5, np.inf], [0.5, 1.0])


# a curve checks its own shape when made, so check_admissible never sees
# a malformed one
def test_admissibility_reports_an_infinite_grid_point_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MathValidityError, match="finite"):
            SpectrumCurve(h_grid=np.array([0.5, np.inf]), d_values=np.array([0.0, 1.0]))


def test_admissibility_reports_a_broken_grid():
    with pytest.raises(MathValidityError, match="increasing"):
        SpectrumCurve(h_grid=np.array([1.0, 0.5]), d_values=np.array([0.5, 1.0]))


def test_admissibility_judges_subnormal_grid_points_without_warnings():
    # d/h would overflow at a subnormal h; the ratio test must not divide
    tiny = 2.225073858507203e-309
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_admissible(SpectrumCurve([tiny], [1.0])) == []
        assert check_admissible(SpectrumCurve([tiny, 2 * tiny], [0.5, 1.0])) == []
        assert check_admissible(SpectrumCurve([tiny, 0.5], [1.0, 1.0])) == [
            "d(h)/h is not non-decreasing"]


def test_admissibility_reports_a_curve_with_no_present_values():
    with pytest.raises(MathValidityError, match="no present values"):
        SpectrumCurve(h_grid=np.array([0.5, 1.0]), d_values=np.full(2, np.nan))


# ---------------------------------------------------------------------------
# density -> spectrum map

def test_spectrum_identity_on_admissible_curve():
    # an admissible d is a fixed point: d(h) = h sup_{a<=h} d(a)/a
    curve = parabola_curve()
    density = LogDensity(curve.h_grid, curve.d_values)
    out = spectrum_from_rho(density)
    src = np.searchsorted(out.h_grid, curve.h_grid)
    err = float(np.nanmax(np.abs(out.d_values[src] - curve.d_values)))
    assert err < 1e-9
    assert abs(out.h_max - 1.5) < 1e-12
    assert abs(out.h_min - 0.5) < 1e-12


def test_spectrum_dominates_density():
    # d(h) >= rho(h) wherever both are present
    for kernel in (
        GaussianKernel(m=1.0, sigma=0.5),
        ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
        ShiftedPoissonKernel(alpha0=0.3, c=1.0),
    ):
        out = spectrum_from_rho(LogDensity.from_kernel(kernel))
        present = out.present()
        rho = kernel.rho(out.h_grid[present])
        assert np.all(out.d_values[present] >= rho - 1e-9)


def test_spectrum_endpoint_values():
    for kernel in (
        GaussianKernel(m=1.0, sigma=0.5),
        ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
        ShiftedPoissonKernel(alpha0=0.3, c=1.0),
    ):
        out = spectrum_from_rho(LogDensity.from_kernel(kernel))
        i_max = int(np.argmin(np.abs(out.h_grid - out.h_max)))
        assert abs(out.d_values[i_max] - 1.0) < 1e-9
        i_min = int(np.argmin(np.abs(out.h_grid - out.h_min)))
        assert abs(out.d_values[i_min]) < 1e-6
        violations = check_admissible(out)
        assert not violations, violations


@pytest.mark.parametrize("step", [0.0, -0.005, np.nan, np.inf])
def test_kernel_spectrum_rejects_bad_grid_step(step):
    with pytest.raises(ConfigError, match="grid_step must be positive and finite"):
        spectrum_from_rho(GaussianKernel(m=1.0, sigma=0.5), grid_step=step)


def test_kernel_grid_stops_at_the_step_bound():
    # a dirac grid reaches 4 H: H = 1 at step 2^-18 takes 2^20 steps, the bound
    out = spectrum_from_rho(DiracKernel(H=1.0), grid_step=2.0**-18)
    assert out.h_grid[-1] == 4.0
    with pytest.raises(ConfigError, match=f"more than {2**20}"):
        spectrum_from_rho(DiracKernel(H=1.0), grid_step=2.0**-18 * (1 - 1e-6))


def test_spectrum_matches_dense_grid_construction():
    # independent evaluation: brute-force running sup on a 10x finer grid
    kernel = GaussianKernel(m=1.0, sigma=0.5)
    out = spectrum_from_rho(LogDensity.from_kernel(kernel))
    fine = np.arange(1, 12001) * 0.0005
    ratios = kernel.rho(fine) / fine
    run = np.maximum.accumulate(ratios)
    d_fine = fine * run
    present = out.present()
    idx = np.searchsorted(fine, out.h_grid[present])
    idx = np.clip(idx, 0, fine.size - 1)
    err = float(np.max(np.abs(out.d_values[present] - d_fine[idx])))
    assert err < 2e-3


def test_spectrum_of_dirac_kernel_is_single_point():
    out = spectrum_from_rho(LogDensity.from_kernel(DiracKernel(H=0.7)))
    present = out.present()
    assert present.sum() == 1
    assert abs(out.h_grid[present][0] - 0.7) < 1e-12
    assert out.d_values[present][0] == 1.0
    assert out.h_min == out.h_max == 0.7


@pytest.mark.parametrize("H", [0.7000000005, 0.70000000001, 2.0000000015])
def test_dirac_spectrum_keeps_h_near_a_grid_point(H):
    # H lies within the 1e-9 snapping distance of a step-grid point
    out = spectrum_from_rho(LogDensity.from_kernel(DiracKernel(H=H)))
    present = out.present()
    assert out.h_grid[present].tolist() == [H]
    assert out.d_values[present].tolist() == [1.0]
    assert out.h_min == out.h_max == H
    assert not check_admissible(out)


def test_spectrum_rejects_density_reaching_zero():
    # rho >= 0 arbitrarily close to 0 leaves no positive h_min, no spectrum:
    # for c <= ln 2 that is alpha0 <= alpha* = 0, refused by validity
    with pytest.raises(KernelValidityError, match="alpha0 <= alpha"):
        spectrum_from_rho(ShiftedPoissonKernel(alpha0=0.0, c=0.5))


@st.composite
def peaked_samples(draw):
    """2-11 increasing alpha in (0.05, 3), rounded to 2 decimals in some
    draws, rho in [-1, 1], and one sample at 1 + delta for a delta at or
    inside the 1e-9 slack that ``LogDensity`` accepts."""
    n = draw(st.integers(2, 11))
    a = sorted(draw(st.lists(st.floats(0.05, 3.0, exclude_min=True, exclude_max=True),
                             min_size=n, max_size=n, unique=True)))
    if draw(st.booleans()):
        a = np.round(a, 2).tolist()   # duplicates are refused by LogDensity
    r = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    r[draw(st.integers(0, n - 1))] = 1.0 + draw(
        st.sampled_from([0.0, 1e-15, -1e-15, 5e-13, 3e-10, -3e-10, 9e-10]))
    return a, r


@given(peaked_samples())
def test_sampled_density_spectrum_is_admissible_or_raises(sample):
    try:
        out = spectrum_from_rho(LogDensity(*sample))
    except MathValidityError:
        return
    assert check_admissible(out) == []
    assert out.d_values[out.present()][-1] == 1.0


@pytest.mark.parametrize(("a", "r", "span"), [
    # h_max = 1 - 2e-12 snaps onto the sample 1.0, which ends the curve
    ([0.3, 0.5, 0.8, 1.0], [-0.5, 0.1, 0.6, 1.0 + 2e-12], (0.5, 1.0)),
    # h_max = 0.49999999985 snaps onto h_min = 0.5: a single point
    ([0.5, 1.25], [1.0 + 3e-10, 0.3], (0.5, 0.5)),
    # d(h) = h / 0.06 to 9 digits: h_max = 0.05999999997 snaps up onto 0.06,
    # and rho(0.04) is capped so that d(h)/h stays non-decreasing
    ([0.02, 0.04, 0.06], [0.333333333, 0.666666667, 1.0], (0.02, 0.06)),
])
def test_sampled_h_max_is_the_sample_it_snaps_onto(a, r, span):
    out = spectrum_from_rho(LogDensity(a, r))
    assert (out.h_min, out.h_max) == span
    assert out.d_values[out.present()][-1] == 1.0
    assert check_admissible(out) == []


def test_sampled_density_everywhere_negative_is_empty():
    a = np.linspace(0.5, 1.5, 11)
    with pytest.raises(EmptySpectrumError):
        spectrum_from_rho(LogDensity(a, np.full(11, -0.5)))


def test_sampled_density_touching_zero_is_flat():
    a = np.linspace(0.5, 1.5, 11)
    r = np.full(11, -1.0)
    r[5] = 0.0
    with pytest.raises(FlatSpectrumError):
        spectrum_from_rho(LogDensity(a, r))


def test_log_density_sample_validation():
    with pytest.raises(MathValidityError):
        LogDensity(np.array([0.5, 0.4]), np.array([0.1, 0.1]))
    with pytest.raises(MathValidityError):
        LogDensity(np.array([0.5, 1.0]), np.array([0.5, 1.5]))
    d = LogDensity(np.array([0.5, 1.0]), np.array([np.nan, 0.5]))
    assert d.rho_values[0] == -np.inf


def test_log_density_h_min_returns_first_nonnegative_alpha():
    a = np.array([0.4, 0.6, 0.8])
    assert spectrum_from_rho(LogDensity(a, np.array([-0.2, 0.0, 0.5]))).h_min == 0.6
    kernel = GaussianKernel(m=1.0, sigma=0.5)
    assert LogDensity.from_kernel(kernel) is kernel
    with pytest.raises(EmptySpectrumError):
        spectrum_from_rho(LogDensity(a, np.array([-1.0, -1.0, -1.0])))


# ---------------------------------------------------------------------------
# raw construction and random kernels

@st.composite
def raw_samples(draw):
    """1-7 samples: x in (-0.5, 3), sorted in most draws; y in (-1.2, 1.2)
    or NaN; given as arrays or as Python lists."""
    n = draw(st.integers(1, 7))
    x = draw(st.lists(st.floats(-0.5, 3.0, exclude_min=True, exclude_max=True),
                      min_size=n, max_size=n))
    if draw(st.integers(0, 9)) < 7:
        x = sorted(x)
    y = draw(st.lists(st.one_of(st.floats(-1.2, 1.2, exclude_min=True, exclude_max=True),
                                st.just(np.nan)), min_size=n, max_size=n))
    if draw(st.integers(0, 9)) < 3:
        return x, y
    return np.array(x), np.array(y)


@given(raw_samples())
@example(([2.225073858507203e-309], [1.0]))   # 1/h_max overflows: refused, no warning
@example(([1e-320, 0.5], [-0.5, 1.0]))   # rho/alpha passes -(largest float) left of h_min
@example(([1e-308, 2.9], [1.0, 0.5]))    # the cap alpha/h_max passes the largest float
def test_a_log_density_is_made_well_formed_or_refused(sample):
    try:
        out = spectrum_from_rho(LogDensity(*sample))
    except MathValidityError:
        return
    assert check_admissible(out) == []
    assert out.d_values[out.present()][-1] == 1.0


@given(raw_samples())
@settings(deadline=None)
def test_a_spectrum_curve_is_made_well_formed_or_refused(sample):
    try:
        curve = SpectrumCurve(*sample)
    except MathValidityError:
        return
    assert isinstance(curve.h_min, float) and isinstance(curve.h_max, float)
    assert isinstance(check_admissible(curve), list)
    try:
        synthesize(SynthesisConfig(J=5, source=curve))
    except RwsError:
        pass


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: float(10.0**e))


random_kernels = st.one_of(
    st.builds(lambda s, x: GaussianKernel(m=gaussian_threshold(s) * (1.0 + x), sigma=s),
              _log_uniform(1e-6, 1e2), _log_uniform(1e-9, 1e2)),
    st.builds(ShiftedGammaKernel, _log_uniform(1e-6, 1e2), _log_uniform(1e-3, 1e2),
              _log_uniform(1e-2, 1e2)),
    st.builds(ShiftedPoissonKernel, _log_uniform(1e-6, 1e2), _log_uniform(1e-3, 1e2)),
    st.builds(DiracKernel, _log_uniform(1e-6, 1e2)),
)


@given(random_kernels)
@example(DiracKernel(H=7e-319))   # 1/h_max overflows: refused, no warning
@settings(deadline=None)
def test_a_kernel_spectrum_and_signal_are_right_or_refused(kernel):
    """The curve is admissible on the kernel's own span, and the signal is
    finite, or the call refuses the kernel; a span too wide for the grid
    bound is refused as an input problem."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "target h_max", UserWarning)
        try:
            curve = spectrum_from_rho(kernel)
        except ConfigError as exc:
            assert "more than" in str(exc)
        except MathValidityError:
            pass
        else:
            h_min, _, h_max = kernel.ratio_max()
            assert check_admissible(curve) == []
            assert (curve.h_min, curve.h_max) == (h_min, h_max)
        try:
            x = synthesize(SynthesisConfig(J=6, seed=1, source=kernel))
        except MathValidityError:
            return
    assert np.isfinite(x).all()


@pytest.mark.parametrize("exponent", [30, 300])
@pytest.mark.parametrize("family", [GaussianKernel, ShiftedGammaKernel, ShiftedPoissonKernel, DiracKernel],
                         ids=lambda f: f.__name__)
def test_log_uniform_kernels_are_made_right_or_refused(family, exponent):
    """Every parameter 10^U(-exponent, exponent), 300 kernels a family from
    a fixed seed: each is made with an admissible spectrum on a finite span,
    or refused with an RwsError, and raises no warning."""
    rng = np.random.default_rng(exponent)
    draws = 10.0 ** rng.uniform(-exponent, exponent, (300, len(dataclasses.fields(family))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in draws.tolist():
            try:
                curve = spectrum_from_rho(family(*params))
            except RwsError:
                continue
            assert check_admissible(curve) == [], params
            assert 0 < curve.h_min <= curve.h_max < math.inf, params


# kernels rescaled from unit scale: the gaussian (m, sigma) = sigma (alpha*(1) f, 1)
# and the gamma (alpha0, nu, beta) = (lambda a0, 1.5, 4 / lambda) have h_max
# lambda times that of lambda = 1
GAUSSIAN_FACTORS = (1.0 + 1e-9, 1.01, 2.0, 100.0)


def _rescaled_families():
    """(unit kernel, kernel at scale lambda) for the gaussian at each factor
    and the gamma at a0 = 0.1 and at -0.1195, just above its alpha*."""
    for f in GAUSSIAN_FACTORS:
        yield (GaussianKernel(m=gaussian_threshold(1.0) * f, sigma=1.0),
               lambda lam, f=f: GaussianKernel(m=lam * (gaussian_threshold(1.0) * f), sigma=lam))
    for a0 in (0.1, -0.1195):
        yield (ShiftedGammaKernel(alpha0=a0, nu=1.5, beta=4.0),
               lambda lam, a0=a0: ShiftedGammaKernel(alpha0=lam * a0, nu=1.5, beta=4.0 / lam))


def _strict_spectrum(kernel):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return spectrum_from_rho(kernel)


# a density at unit scale and rescaled by s in alpha: rho_s(s a) = rho(a)
SCALED_DENSITIES = {
    "samples": lambda s: LogDensity(s * np.array([0.3, 0.5, 0.8, 1.1, 1.6]),
                                    [-0.5, 0.2, 0.9, 1.0, 0.4]),
    "gaussian": lambda s: GaussianKernel(m=s * 1.0, sigma=s * 0.5),
    "gamma": lambda s: ShiftedGammaKernel(alpha0=s * 0.1, nu=1.5, beta=4.0 / s),
    "dirac": lambda s: DiracKernel(H=s * 0.8),
}


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-6, 1e3])
@pytest.mark.parametrize("name", sorted(SCALED_DENSITIES))
def test_a_rescaled_density_gives_the_rescaled_spectrum(name, s):
    # grid snaps and the dirac's point are relative: the unit-scale grid,
    # span and d at every scale
    unit = spectrum_from_rho(SCALED_DENSITIES[name](1.0))
    scaled = spectrum_from_rho(SCALED_DENSITIES[name](s), grid_step=spectra.DEFAULT_GRID_STEP * s)
    assert scaled.h_grid.size == unit.h_grid.size
    np.testing.assert_allclose(scaled.h_grid / s, unit.h_grid, rtol=1e-12, atol=0)
    assert abs(scaled.h_min / s - unit.h_min) <= 1e-12 * unit.h_min
    assert abs(scaled.h_max / s - unit.h_max) <= 1e-12 * unit.h_max
    np.testing.assert_array_equal(scaled.present(), unit.present())
    assert np.max(np.abs(scaled.d_values - unit.d_values)[unit.present()]) <= 1e-12


def test_a_dirac_density_is_one_at_h_alone_at_any_scale():
    assert DiracKernel(H=1e-13).rho(5e-13) == -np.inf
    assert DiracKernel(H=1e-13).rho(1e-13) == 1.0


def test_kernel_spectra_scale_with_the_kernel():
    # 900 valid kernels, scale down to 1e-150: none is refused
    wrong = []
    for unit, at_scale in _rescaled_families():
        unit_h_max = spectrum_from_rho(unit).h_max
        for lam in np.logspace(-1, -150, 150):
            curve = _strict_spectrum(at_scale(lam))
            expected = lam * unit_h_max
            if check_admissible(curve) or not abs(curve.h_max - expected) <= 1e-9 * expected:
                wrong.append((at_scale(lam), curve.h_max, expected))
    assert wrong == [], f"{len(wrong)} of 900 wrong, first {wrong[:3]}"


def test_gaussian_kernels_far_below_unit_scale_are_right_or_refused():
    # sigma down to 3e-162; below about 1.49e-154 sigma**2 is not a normal
    # float and the kernel is refused
    wrong = []
    for f in GAUSSIAN_FACTORS:
        for sigma in np.logspace(-3, -161.5, 160):
            try:
                kernel = GaussianKernel(m=sigma * (gaussian_threshold(1.0) * f), sigma=sigma)
                curve = _strict_spectrum(kernel)
            except MathValidityError:
                assert sigma**2 < np.finfo(np.float64).tiny
                continue
            h_min, _, h_max = kernel.ratio_max()
            if check_admissible(curve) or (curve.h_min, curve.h_max) != (h_min, h_max):
                wrong.append(kernel)
    assert wrong == [], f"{len(wrong)} of 640 wrong, first {wrong[:3]}"


def _dense_h_max(kernel):
    """1 / max rho(a)/a of a shifted kernel on a log grid of t = a - alpha0
    from one ulp of alpha0 to 100 mode offsets, refined around its best point."""
    t = np.logspace(np.log10(np.spacing(kernel.alpha0)), np.log10(100 * kernel._offset()), 20001)
    i = int(np.argmax(kernel.rho(kernel.alpha0 + t) / (kernel.alpha0 + t)))
    a = kernel.alpha0 + np.linspace(t[max(i - 1, 0)], t[i + 1], 20001)
    return 1.0 / np.max(kernel.rho(a) / a)


@pytest.mark.parametrize("kernel", [
    ShiftedGammaKernel(alpha0=1.4480077223993603e-184, nu=1.3399792748983982e-06, beta=52285799410.45579),
    ShiftedGammaKernel(alpha0=1.522460946148322e-225, nu=0.00019462625977073947, beta=5.410108545166469e+200),
    ShiftedGammaKernel(alpha0=0.1, nu=1.5, beta=4.0),
], ids=repr)
def test_a_gamma_rising_steeply_from_its_shift_point_gets_its_own_span(kernel):
    # the maximizer of rho(a)/a lies some 1e-190 right of alpha0 in a bracket
    # 1e-17 wide: its solve must be to the zero's own scale, not the bracket's
    curve = _strict_spectrum(kernel)
    assert check_admissible(curve) == []
    assert abs(curve.h_max - _dense_h_max(kernel)) <= 1e-9 * curve.h_max
