"""Kernel densities, validity thresholds, and the density-to-spectrum map."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)

LOG2E = np.log2(np.e)

# Frozen by independent bracketed bisection of the defining equations
# (200 halvings, residual < 1e-15 at the root).
ALPHA_STAR_GAMMA_1_3 = -0.077320317662178145
ALPHA_STAR_GAMMA_15_4 = -0.11953126090233931
ALPHA_STAR_POISSON_1 = -0.090057199312764347
ALPHA_STAR_POISSON_05 = -1.5406715574027858


def parabola_curve():
    return curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5)


# ---------------------------------------------------------------------------
# kernels

def test_gaussian_validity_threshold():
    assert abs(gaussian_threshold(1.0) - np.sqrt(2.0 * np.log(2.0))) < 1e-15
    kernel_validity(GaussianKernel(m=1.0, sigma=0.5))
    with pytest.raises(KernelValidityError, match="m <= sigma"):
        kernel_validity(GaussianKernel(m=1.0, sigma=1.0))
    with pytest.raises(KernelValidityError, match="sigma"):
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
        (ShiftedPoissonKernel(alpha0=0.0, c=0.5), ALPHA_STAR_POISSON_05),
    ],
)
def test_alpha_star_frozen_values(kernel, expected):
    got = kernel.alpha_star()
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize(
    "kernel",
    [
        ShiftedGammaKernel(alpha0=0.0, nu=1.0, beta=3.0),
        ShiftedGammaKernel(alpha0=0.0, nu=1.5, beta=4.0),
        ShiftedGammaKernel(alpha0=0.0, nu=0.3, beta=9.0),
        ShiftedPoissonKernel(alpha0=0.0, c=1.0),
        ShiftedPoissonKernel(alpha0=0.0, c=0.5),
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


def test_alpha_star_rejects_other_variants():
    with pytest.raises(UnsupportedVariantError):
        GaussianKernel(m=1.0, sigma=0.5).alpha_star()
    with pytest.raises(UnsupportedVariantError):
        DiracKernel(H=0.8).alpha_star()


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
    # small c pushes the threshold far negative
    kernel_validity(ShiftedPoissonKernel(alpha0=-1.5, c=0.5))
    with pytest.raises(KernelValidityError):
        kernel_validity(ShiftedPoissonKernel(alpha0=-1.55, c=0.5))
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


@pytest.mark.parametrize("kernel", THRESHOLD_KERNELS, ids=repr)
def test_validity_switches_at_alpha_star(kernel):
    star = kernel.alpha_star()
    with pytest.raises(KernelValidityError, match="alpha0 <= alpha"):
        kernel_validity(dataclasses.replace(kernel, alpha0=star - 1e-9))
    above = dataclasses.replace(kernel, alpha0=star + 1e-9)
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
    (1e-3, -6.413338752028713e-306),   # a normal float: the walk stops short of it
    (3e-4, 0.0),
    (1e-4, 0.0),
    (1e-5, 0.0),
])
def test_gamma_alpha_star_below_the_least_subnormal_is_zero(nu, star):
    # from nu ~ 3e-4 down the left zero of the shifted density underflows:
    # the walk's step halves to 0.0 and alpha* is 0, without evaluating log2(0)
    k = ShiftedGammaKernel(alpha0=0.1, nu=nu, beta=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert k.alpha_star() == star


@pytest.mark.parametrize("kernel", [
    GaussianKernel(m=np.inf, sigma=0.5),
    GaussianKernel(m=1.0, sigma=np.nan),
    ShiftedGammaKernel(alpha0=0.1, nu=np.nan, beta=4.0),
    ShiftedPoissonKernel(alpha0=0.3, c=np.inf),
    DiracKernel(H=np.inf),
], ids=["gaussian-m-inf", "gaussian-sigma-nan", "gamma-nu-nan", "poisson-c-inf", "dirac-H-inf"])
def test_non_finite_parameters_are_rejected_before_any_root_solve(kernel):
    name = next(n for n, v in vars(kernel).items() if not np.isfinite(v))
    with pytest.raises(KernelValidityError, match=f"{name} = .* is not finite"):
        kernel_validity(kernel)
    with pytest.raises(KernelValidityError, match=f"{name} = .* is not finite"):
        spectrum_from_rho(kernel)


def test_validity_rejects_non_kernels():
    with pytest.raises(UnsupportedVariantError, match="unknown kernel"):
        kernel_validity(object())


def test_dirac_validity():
    kernel_validity(DiracKernel(H=0.8))
    with pytest.raises(KernelValidityError, match="H <= 0"):
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
    # peak at the origin side: no positive h_min, no spectrum
    k = ShiftedPoissonKernel(alpha0=0.0, c=0.5)
    kernel_validity(k)  # valid kernel, but its support touches 0
    with pytest.raises(MathValidityError, match="close to 0"):
        spectrum_from_rho(LogDensity.from_kernel(k))


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
