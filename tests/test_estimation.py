"""Exponent counting, scaling-law fits, and the two spectrum estimators."""

import hashlib
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rws import (
    AlphaField,
    CoefficientPyramid,
    ConfigError,
    DegenerateLevelError,
    DiracKernel,
    FlatLaw,
    GaussianKernel,
    InsufficientScalesError,
    LambdaCurve,
    SynthesisConfig,
    TauCurve,
    analyze_pyramid,
    critical_q,
    curve_from_function,
    daubechies_filter,
    default_q_grid,
    estimate_lambda,
    forward_dwt,
    generate_coefficients,
    large_deviation_spectrum,
    legendre_spectrum,
    structure_function,
    synthesize,
    upper_closure,
)
from rws.estimation import LADDER_BLOCK, _default_alpha_grid, _upper_quantile

# Frozen as the least-squares slope of log2(j) against j over scales 6..15;
# the flat generator has expected occupancy j at scale j.
FLAT_COUNT_SLOPE = 0.144134348280474


def parabola_pyramid(J=16, seed=1):
    curve = curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5)
    return generate_coefficients(SynthesisConfig(J=J, source=curve, seed=seed))


def dirac_pyramid(H=0.5, J=12, seed=0):
    return generate_coefficients(SynthesisConfig(J=J, source=DiracKernel(H=H), seed=seed))


def three_scale_pyramid():
    # synthesis needs J >= 4; scale j is keyed by (seed, j), so these are
    # the levels a J=3 draw would give
    pyr = dirac_pyramid(J=4)
    return CoefficientPyramid(J=3, levels=pyr.levels[:3], coarse_mean=pyr.coarse_mean)


def rescale(pyramid, factors):
    return CoefficientPyramid(
        J=pyramid.J,
        levels=[l * f for l, f in zip(pyramid.levels, factors)],
        coarse_mean=pyramid.coarse_mean,
    )


# ---------------------------------------------------------------------------
# exponent fields

def test_field_drops_zeros_and_sorts():
    pyr = parabola_pyramid(J=10, seed=0)
    field = AlphaField.from_pyramid(pyr)
    assert sorted(field.levels) == list(range(1, 10))
    for j, alpha in field.levels.items():
        nz = np.count_nonzero(pyr.levels[j])
        assert alpha.size == nz
        assert np.all(np.diff(alpha) >= 0)
        assert np.all(np.isfinite(alpha))


def test_a_shuffled_field_reads_as_its_sorted_self():
    # a hand-built field sorts its levels when it is made, so every reader
    # (counts, ladder extremes, grid quantile) sees the order from_pyramid gives
    pyr = generate_coefficients(SynthesisConfig(J=12, source=GaussianKernel(m=1.0, sigma=0.5), seed=2))
    ordered = AlphaField.from_pyramid(pyr)
    rng = np.random.default_rng(5)
    shuffled = AlphaField(J=12, levels={j: rng.permutation(a) for j, a in ordered.levels.items()})
    grid = _default_alpha_grid(ordered, 0.005)
    np.testing.assert_array_equal(_default_alpha_grid(shuffled, 0.005), grid)
    for a, b in ((estimate_lambda(shuffled, grid), estimate_lambda(ordered, grid)),
                 (structure_function(shuffled), structure_function(ordered))):
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.residuals, b.residuals)
    for j, a in shuffled.levels.items():
        np.testing.assert_array_equal(a, ordered.levels[j])


@pytest.mark.parametrize("gaps", ["close", "far"])
def test_upper_quantile_is_numpys_quantile_of_a_sorted_level(gaps):
    # far-apart neighbours expose any difference in the interpolation weight
    rng = np.random.default_rng(11)
    for n in [*range(1, 301), 2**10, 2**16 - 1, 2**16, 2**21]:
        a = np.cumsum(rng.exponential(1e-4 if gaps == "close" else 1.0, n)) + 0.3
        assert _upper_quantile(a) == float(np.quantile(a, 0.9999)), n


def test_counts_are_inclusive_at_the_threshold():
    # N_j(alpha) counts exponents <= alpha: scale j holds one 0.4 and
    # 2^j - 1 copies of 0.7, so log2 N_j grows with slope 1 at 0.7 exactly
    # and slope 0 just below it; below 0.4 nothing is counted
    levels = {j: np.r_[0.4, np.full(2**j - 1, 0.7)] for j in range(1, 12)}
    lam = estimate_lambda(AlphaField(J=12, levels=levels), np.array([0.3, 0.7 - 1e-12, 0.7, 2.0]))
    assert np.isnan(lam.values[0])
    assert abs(lam.values[1]) < 1e-12
    assert abs(lam.values[2] - 1.0) < 1e-12
    assert abs(lam.values[3] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# lambda estimation

def test_monofractal_lambda_is_exactly_one():
    field = AlphaField.from_pyramid(dirac_pyramid(H=0.5, J=12))
    lam = estimate_lambda(field, np.array([0.498, 0.502, 0.75, 1.0]))
    assert np.isnan(lam.values[0])
    assert np.allclose(lam.values[1:], 1.0, atol=1e-9)
    assert np.all(lam.residuals[1:] < 1e-9)
    assert lam.scale_range == (2, 11)


def test_flat_count_slope_matches_expected_occupancy():
    field = AlphaField.from_pyramid(
        generate_coefficients(SynthesisConfig(J=16, source=FlatLaw(0.7), seed=3))
    )
    lam = estimate_lambda(field, np.array([0.705]))
    assert abs(lam.values[0] - FLAT_COUNT_SLOPE) < 0.1


def test_lambda_needs_three_scales():
    field = AlphaField.from_pyramid(dirac_pyramid(J=4))
    estimate_lambda(field, np.array([0.75]))
    with pytest.raises(InsufficientScalesError, match="3 scales"):
        estimate_lambda(AlphaField.from_pyramid(three_scale_pyramid()), np.array([0.75]))


@pytest.mark.parametrize("options", [
    {"scale_count": 0}, {"scale_count": -2}, {"scale_count": 2}, {"scale_count": 3.0},
    {"grid_step": 0.0}, {"grid_step": -0.005}, {"grid_step": np.nan}, {"grid_step": np.inf},
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_analyze_pyramid_rejects_bad_options(options):
    # before the library checked them, scale_count=0 fitted every scale,
    # -2 all but two, and a step that was not positive gave an empty spectrum
    pyramid = generate_coefficients(SynthesisConfig(J=12, source=GaussianKernel(m=1.0, sigma=0.5), seed=1))
    with pytest.raises(ConfigError, match="scale_count|grid_step"):
        analyze_pyramid(pyramid, **options)


# ---------------------------------------------------------------------------
# the fit range: chosen by from_pyramid, read from the field by both fits

def gaussian_pyramid(J=14, seed=1):
    return generate_coefficients(SynthesisConfig(J=J, source=GaussianKernel(m=1.0, sigma=0.5), seed=seed))


def assert_same_analysis(a, b):
    for curve in ("lambda_curve", "closed_curve", "tau_curve"):
        x, y = getattr(a, curve), getattr(b, curve)
        for name in ("values", "residuals"):
            np.testing.assert_array_equal(getattr(x, name), getattr(y, name))
        assert x.scale_range == y.scale_range
    np.testing.assert_array_equal(a.lambda_curve.alpha_grid, b.lambda_curve.alpha_grid)
    for name in ("h_grid", "d2", "d1"):
        np.testing.assert_array_equal(getattr(a.spectrum, name), getattr(b.spectrum, name))
    np.testing.assert_equal(a.spectrum.meta, b.spectrum.meta)


@pytest.mark.parametrize("zeros", [False, True], ids=["every-level-nonzero", "levels-with-zeros"])
def test_the_field_and_the_analysis_leave_the_pyramid_unchanged(zeros):
    # each converts its own copy of a level: analyze_pyramid releases the
    # pyramid once the field is made, but no stage writes to its argument
    pyramid = gaussian_pyramid()
    assert all(lev.all() for lev in pyramid.levels)
    if zeros:  # each fit level is then compressed to its nonzero entries
        for lev in pyramid.levels[4:]:
            lev[::3] = 0.0
    before = [lev.tobytes() for lev in pyramid.levels]
    AlphaField.from_pyramid(pyramid)
    assert [lev.tobytes() for lev in pyramid.levels] == before
    assert analyze_pyramid(pyramid).spectrum.meta["J"] == 14
    assert [lev.tobytes() for lev in pyramid.levels] == before


@pytest.mark.parametrize("kind", [np.uint8, np.uint64, np.int16])
def test_numpy_scale_count_fits_like_a_python_int(kind):
    # -scale_count wraps for an unsigned type: the slice kept no scale
    pyramid = gaussian_pyramid()
    assert_same_analysis(analyze_pyramid(pyramid, scale_count=kind(10)),
                         analyze_pyramid(pyramid, scale_count=10))


def test_a_level_outside_the_fit_changes_no_output():
    # level 1 lies outside the ten fit scales of J = 14; rounding noise there
    # (alpha = 56.5) must not stretch the alpha grid, nor move any estimate
    pyramid = gaussian_pyramid()
    levels = list(pyramid.levels)
    levels[1] = np.array([1e-17, -1.0])
    noisy = CoefficientPyramid(J=14, levels=levels, coarse_mean=pyramid.coarse_mean)
    clean = analyze_pyramid(pyramid)
    assert clean.spectrum.meta["scale_range"] == (4, 13)
    assert_same_analysis(analyze_pyramid(noisy), clean)


def test_a_hand_built_field_is_fitted_on_exactly_its_scales():
    # scale j holds 2^j exponents 0.5: log2 N_j = j and log2 S_j(q) = j (1 - q/2)
    field = AlphaField(J=16, levels={j: np.full(2**j, 0.5) for j in (4, 9, 15)})
    lam = estimate_lambda(field, np.array([0.4, 0.5, 1.0]))
    tau = structure_function(field)
    assert lam.scale_range == tau.scale_range == (4, 15)
    assert np.isnan(lam.values[0])
    np.testing.assert_allclose(lam.values[1:], 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tau.values, tau.q_grid / 2 - 1, rtol=0, atol=1e-9)


def test_lambda_nan_when_counts_too_sparse():
    # alpha 0.5 occupied at two scales only, 0.9 at all ten
    levels = {j: np.array([0.9]) for j in range(1, 16)}
    levels[14] = np.array([0.5, 0.9])
    levels[15] = np.array([0.5, 0.9])
    lam = estimate_lambda(AlphaField(J=16, levels=levels), np.array([0.6, 1.0]))
    assert np.isnan(lam.values[0])
    assert np.isfinite(lam.values[1])


def test_translation_covariance_is_exact():
    # rescaling scale j by 2^(-j delta) shifts every exponent by delta
    pyr = parabola_pyramid()
    delta = 0.1
    shifted = rescale(pyr, [2.0 ** (-j * delta) for j in range(pyr.J)])
    grid = 0.005 * np.arange(1, 401)
    lam = estimate_lambda(AlphaField.from_pyramid(pyr), grid)
    lam2 = estimate_lambda(AlphaField.from_pyramid(shifted), grid + delta)
    assert np.array_equal(np.isnan(lam.values), np.isnan(lam2.values))
    both = np.isfinite(lam.values)
    assert np.max(np.abs(lam.values[both] - lam2.values[both])) < 1e-12


# ---------------------------------------------------------------------------
# upper closure

def test_closure_removes_dips():
    raw = LambdaCurve(
        alpha_grid=np.array([0.5, 0.7, 0.9]),
        values=np.array([1.0, 0.5, 0.8]),
        residuals=np.zeros(3),
        scale_range=(6, 15),
    )
    closed = upper_closure(raw)
    assert closed.values.tolist() == [1.0, 1.0, 1.0]


def test_closure_nan_handling_and_idempotence():
    raw = LambdaCurve(
        alpha_grid=np.array([0.3, 0.5, 0.7, 0.9]),
        values=np.array([np.nan, 0.5, np.nan, 0.3]),
        residuals=np.zeros(4),
        scale_range=(6, 15),
    )
    closed = upper_closure(raw)
    assert np.isnan(closed.values[0])
    assert closed.values[1:].tolist() == [0.5, 0.5, 0.5]
    again = upper_closure(closed)
    assert np.array_equal(again.values[1:], closed.values[1:])


# ---------------------------------------------------------------------------
# large-deviation spectrum

@given(st.lists(
    st.tuples(
        st.floats(1e-3, 1.0),
        st.one_of(st.just(np.nan), st.just(0.0), st.floats(-2.0, 2.0)),
    ),
    min_size=1, max_size=40,
))
@example(points=[(1.0, -5e-324), (1.0, np.nan)])   # the closed ratio -5e-324 / 2 underflows to -0.0
@example(points=[(1.0, np.nan), (1.0, 0.0), (1.0, -5e-324)])   # a running max of 0.0 and -0.0
def test_large_deviation_is_the_same_on_the_raw_and_closed_curve(points):
    # the sup of lambda/alpha over alpha <= h is attained at a raw value
    # wherever it is nonnegative, so closing the curve first changes no bit
    alpha = np.cumsum([a for a, _ in points])
    raw = LambdaCurve(
        alpha_grid=alpha,
        values=np.array([v for _, v in points]),
        residuals=np.zeros(alpha.size),
        scale_range=(6, 15),
    )
    np.testing.assert_array_equal(
        large_deviation_spectrum(raw), large_deviation_spectrum(upper_closure(raw))
    )


def test_monofractal_large_deviation_grows_linearly():
    field = AlphaField.from_pyramid(dirac_pyramid(H=0.5, J=12))
    closed = upper_closure(estimate_lambda(field, np.array([0.3, 0.502, 1.0])))
    d2 = large_deviation_spectrum(closed)
    assert np.isnan(d2[0])
    assert abs(d2[1] - 1.0) < 1e-2
    # without the pipeline cutoff the formula keeps growing past d = 1
    assert abs(d2[2] - 1.0 / 0.502) < 1e-6


def test_all_negative_closure_yields_absent_spectrum():
    closed = LambdaCurve(
        alpha_grid=np.array([0.5, 1.0]),
        values=np.array([-0.2, -0.1]),
        residuals=np.zeros(2),
        scale_range=(6, 15),
    )
    assert np.all(np.isnan(large_deviation_spectrum(closed)))


# ---------------------------------------------------------------------------
# structure functions

def tau_of(pyramid):
    return structure_function(AlphaField.from_pyramid(pyramid))


def test_monofractal_tau_is_affine():
    tau = tau_of(dirac_pyramid(H=0.5, J=12))
    expected = 0.5 * tau.q_grid - 1.0
    assert np.max(np.abs(tau.values - expected)) < 1e-9
    assert np.all(tau.residuals < 1e-9)


def test_tau_at_zero_counts_nonzero_fraction():
    tau = tau_of(dirac_pyramid(H=0.8, J=12))
    assert abs(tau.values[tau.q_grid == 0.0][0] + 1.0) < 1e-12


def test_tau_finite_for_negative_q_despite_zeros():
    pyr = parabola_pyramid(J=12, seed=0)
    assert any(np.any(l == 0) for l in pyr.levels[5:])
    assert np.all(np.isfinite(tau_of(pyr).values))


def reference_tau(pyramid, scale_count=10):
    """tau(q) on the default grid from one log-sum-exp of q log2|C| per
    (q, scale), fitted by ordinary least squares: the direct formula the
    ladder must reproduce."""
    js = np.arange(1, pyramid.J)[-scale_count:]
    q = default_q_grid()
    y = np.empty((js.size, q.size))
    for row, j in enumerate(js):
        c = np.abs(pyramid.levels[j])
        logc = np.log2(c[c > 0])
        for col, qv in enumerate(q):
            v = qv * logc
            m = v.max()
            y[row, col] = m + np.log2(np.exp2(v - m).sum())
    return np.polyfit(-js.astype(np.float64), y, 1)[0]


def test_ladder_matches_direct_sums():
    pyr = generate_coefficients(
        SynthesisConfig(J=12, source=GaussianKernel(m=1.0, sigma=0.5), seed=2))
    tau = tau_of(pyr)
    np.testing.assert_array_equal(tau.q_grid, default_q_grid())
    np.testing.assert_allclose(tau.values, reference_tau(pyr), rtol=1e-10, atol=0)


def test_ladder_matches_direct_sums_across_block_boundaries():
    pyr = generate_coefficients(
        SynthesisConfig(J=18, source=GaussianKernel(m=1.0, sigma=0.5), seed=4))
    assert np.count_nonzero(pyr.levels[17]) > LADDER_BLOCK  # fit levels straddle blocks
    np.testing.assert_allclose(tau_of(pyr).values, reference_tau(pyr), rtol=1e-10, atol=0)


# tau(q) values then residuals of the J=18 field below, as the serial
# block-by-block ladder summed them
J18_TAU_SHA256 = "3d9491f21a1f0ad66358916301c17f77910da38ba5e8040d1ace5e5ba0f65534"


def test_ladder_bits_do_not_depend_on_the_worker_count(monkeypatch):
    # four blocks, the last levels straddling them; the pool's partial sums
    # must be added in block order whatever the workers and thread switches
    field_ = AlphaField.from_pyramid(generate_coefficients(
        SynthesisConfig(J=18, source=GaussianKernel(m=1.0, sigma=0.5), seed=4)))
    assert field_.levels[17].size > LADDER_BLOCK

    def digest():
        tau = structure_function(field_)
        return hashlib.sha256(tau.values.tobytes() + tau.residuals.tobytes()).hexdigest()

    threads = threading.active_count()
    assert digest() == J18_TAU_SHA256  # the process's own CPU affinity
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            for _ in range(5):  # block completion order varies from run to run
                assert digest() == J18_TAU_SHA256, f"{cpus} workers"
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads  # the ladder pool is shut down


def test_ladder_matches_direct_sums_on_sparse_levels():
    pyr = generate_coefficients(SynthesisConfig(J=14, source=FlatLaw(0.7), seed=3))
    assert all(0 < np.count_nonzero(l) < 64 for l in pyr.levels[4:])
    np.testing.assert_allclose(tau_of(pyr).values, reference_tau(pyr), rtol=1e-10, atol=0)


@pytest.mark.parametrize("order", ["default", "shuffled"])
def test_ladder_shift_survives_a_300_octave_level(order):
    # every level spans 2^-300..1 around its own offset, so q log2|C| runs far
    # outside float range and many ladder terms underflow to 0; a hand-built
    # field need not be sorted, and the shifts must not depend on its order
    rng = np.random.default_rng(7)
    levels = []
    for j in range(12):
        e = -300.0 * rng.random(2**j)
        e[0], e[-1] = 0.0, -300.0
        levels.append(rng.choice([-1.0, 1.0], 2**j) * np.exp2(e - 3.0 * j))
    pyr = CoefficientPyramid(J=12, levels=levels, coarse_mean=0.0)
    field = AlphaField.from_pyramid(pyr)
    if order == "shuffled":
        field = AlphaField(J=12, levels={j: rng.permutation(a) for j, a in field.levels.items()})
    tau = structure_function(field)
    assert np.all(np.isfinite(tau.values))
    np.testing.assert_allclose(tau.values, reference_tau(pyr), rtol=1e-10, atol=0)


def test_tau_rejects_empty_scale():
    levels = [np.ones(2**j) for j in range(8)]
    levels[5] = np.zeros(32)
    pyr = CoefficientPyramid(J=8, levels=levels, coarse_mean=0.0)
    with pytest.raises(DegenerateLevelError, match="scale 5"):
        tau_of(pyr)


def test_tau_needs_three_scales():
    with pytest.raises(InsufficientScalesError):
        tau_of(three_scale_pyramid())


# ---------------------------------------------------------------------------
# critical exponent

def line_tau(q_grid, slope, intercept=-1.0):
    q = np.asarray(q_grid, dtype=np.float64)
    return TauCurve(q_grid=q, values=slope * q + intercept,
                    residuals=np.zeros(q.size), scale_range=(6, 15))


def test_critical_q_bisects_between_grid_points():
    q_c = critical_q(line_tau(default_q_grid(), 0.8))
    assert abs(q_c - 1.25) < 2e-8


def test_critical_q_returns_exact_grid_zero():
    assert critical_q(line_tau(np.array([0.0, 1.0, 2.0]), 1.0)) == 1.0


def test_critical_q_returns_a_zero_at_the_last_grid_point():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert critical_q(line_tau(np.array([0.0, 1.0, 2.0]), 1.0, intercept=-2.0)) == 2.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: late-bound `lo`; fixed together "
                   "with re-recorded perfbench references")
def test_critical_q_is_the_interpolant_zero():
    q = default_q_grid()
    for values, zero in ((q - 0.66, 0.66), (2 * (q - 1.234), 1.234)):
        tau = TauCurve(q_grid=q, values=values, residuals=np.zeros(q.size), scale_range=(6, 15))
        assert abs(critical_q(tau) - zero) <= 1e-12


def test_critical_q_warns_without_sign_change():
    with pytest.warns(UserWarning, match="no sign change"):
        q_c = critical_q(line_tau(default_q_grid(), 0.05))
    assert q_c == -5.0


# ---------------------------------------------------------------------------
# Legendre spectrum

def test_legendre_monofractal_values():
    tau = tau_of(dirac_pyramid(H=0.8, J=12))
    q_c = critical_q(tau)
    assert abs(q_c - 1.25) < 1e-6
    d1 = legendre_spectrum(tau, q_c, np.array([0.6, 0.8, 1.2]))
    assert abs(d1[0] - (-1.0)) < 1e-6      # left flank runs through q = 10
    assert abs(d1[1] - 1.0) < 1e-6         # full dimension at h = H
    assert abs(d1[2] - (1.0 + 1.25 * 0.4)) < 1e-6  # right flank through q_c


def test_legendre_includes_the_critical_vertex():
    # q_c = 1.25 sits between grid points; the minimum at h = 1 is attained
    # at the inserted (q_c, 0) pair, not at any grid q
    grid = np.arange(-2.0, 10.5, 0.5)
    tau = line_tau(grid, 0.8)
    d1 = legendre_spectrum(tau, critical_q(tau), np.array([1.0]))
    assert abs(d1[0] - 1.25) < 1e-7


def test_legendre_is_concave():
    tau = tau_of(parabola_pyramid(J=12, seed=0))
    h = 0.005 * np.arange(1, 401)
    d1 = legendre_spectrum(tau, critical_q(tau), h)
    assert np.all(np.diff(d1, 2) <= 1e-9)


# ---------------------------------------------------------------------------
# full pipeline

def test_pipeline_monofractal():
    res = analyze_pyramid(dirac_pyramid(H=0.8, J=14))
    sp = res.spectrum
    peak = np.nanargmax(sp.d2)
    assert abs(sp.h_grid[peak] - 0.8) < 0.006
    assert abs(sp.d2[peak] - 1.0) < 0.01
    assert abs(sp.meta["q_c"] - 1.25) < 1e-6
    # absent below h_min and cut above the certified h_max
    assert np.isnan(sp.d2[np.searchsorted(sp.h_grid, 0.5)])
    assert np.isnan(sp.d2[np.searchsorted(sp.h_grid, 1.0)])
    assert abs(sp.meta["h_max"] - 0.8) < 0.006
    assert abs(sp.meta["h_min"] - 0.8) < 0.006
    assert sp.meta["scale_range"] == (4, 13)


def test_pipeline_shares_one_h_grid():
    res = analyze_pyramid(dirac_pyramid(H=0.8, J=10))
    sp = res.spectrum
    assert np.array_equal(sp.h_grid, res.closed_curve.alpha_grid)
    assert sp.d1.shape == sp.h_grid.shape
    assert sp.d2.shape == sp.h_grid.shape


def test_amplitude_scaling_leaves_tau_and_legendre_unchanged():
    pyr = parabola_pyramid()
    res = analyze_pyramid(pyr)
    res2 = analyze_pyramid(rescale(pyr, [2.0] * pyr.J))
    assert np.max(np.abs(res.tau_curve.values - res2.tau_curve.values)) < 1e-9
    assert abs(res.spectrum.meta["q_c"] - res2.spectrum.meta["q_c"]) < 1e-9
    # the default h grids depend on the data; compare on their common prefix
    n = min(res.spectrum.h_grid.size, res2.spectrum.h_grid.size)
    h = res.spectrum.h_grid[:n]
    assert np.array_equal(h, res2.spectrum.h_grid[:n])
    assert np.max(np.abs(res.spectrum.d1[:n] - res2.spectrum.d1[:n])) < 1e-8
    # count-based fits only drift a little
    m = (h >= 0.7) & (h <= 1.4)
    drift = np.abs(res.closed_curve.values[:n][m] - res2.closed_curve.values[:n][m])
    assert np.nanmax(drift) < 0.15


def test_pipeline_estimates_respect_the_formalism_order():
    sp = analyze_pyramid(parabola_pyramid(J=16, seed=1)).spectrum
    both = np.isfinite(sp.d2) & (sp.d1 >= 0)
    assert both.any()
    assert np.max(sp.d2[both] - sp.d1[both]) <= 0.05


# Analysis numbers of three J=14 signals, one without a zero crossing of tau.
# ROADMAP items 4 (amplitude- and boundary-safe counting) and 1 (the
# critical_q fix) move them, and each re-records them.
PINNED_ANALYSES = [  # source, seed; q_c, q_c_found, h_min, h_max, tau at q = -2, 0, 2, 5
    pytest.param(GaussianKernel(m=1.0, sigma=0.5), 1,
                 1.106249997019768, True, 0.49, 0.9401735498365361,
                 (-4.361034489801179, -1.0, 0.7003892255663391, 2.3549970730400345),
                 id="gaussian"),
    pytest.param(curve_from_function(lambda h: (h - 0.5) ** 2, 0.5, 1.5), 0,
                 0.6999999970197677, True, 0.665, 1.5234617587721633,
                 (-4.963178963212818, -1.0, 1.405366768141398, 3.6200102700875054),
                 id="parabola"),
    pytest.param(DiracKernel(H=0.05), 0,
                 -5.0, False, 0.005, 0.005422894031237581,
                 (-2.1025188366118903, -1.0, -0.9336500032750943, -0.767943675591448),
                 id="dirac-0.05"),
]


@pytest.mark.parametrize(("source", "seed", "q_c", "found", "h_min", "h_max", "taus"), PINNED_ANALYSES)
def test_analysis_numbers_are_pinned(source, seed, q_c, found, h_min, h_max, taus):
    # J = 14, db10 synthesis, db3 analysis
    x = synthesize(SynthesisConfig(J=14, source=source, seed=seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dirac-0.05 has no zero crossing
        res = analyze_pyramid(forward_dwt(x, daubechies_filter(3)))
    meta = res.spectrum.meta
    assert abs(meta["q_c"] - q_c) <= 1e-8
    assert meta["q_c_found"] is found
    np.testing.assert_allclose([meta["h_min"], meta["h_max"]], [h_min, h_max], rtol=1e-12, atol=0)
    tau = res.tau_curve.values[np.isin(res.tau_curve.q_grid, [-2.0, 0.0, 2.0, 5.0])]
    np.testing.assert_allclose(tau, taus, rtol=1e-12, atol=0)


def test_default_q_grid_span():
    q = default_q_grid()
    assert q[0] == -5.0
    assert q[-1] == 10.0
    assert np.allclose(np.diff(q), 0.1)
