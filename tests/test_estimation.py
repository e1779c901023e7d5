"""Exponent counting, scaling-law fits, and the two spectrum estimators."""

import numpy as np
import pytest

from rws import (
    AlphaField,
    CoefficientPyramid,
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
    default_q_grid,
    estimate_lambda,
    generate_coefficients,
    large_deviation_spectrum,
    legendre_spectrum,
    structure_function,
    upper_closure,
)
from rws.estimation import LADDER_BLOCK

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
    assert lam.closed is False


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
    assert closed.closed is True


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

def test_large_deviation_requires_closed_curve():
    raw = LambdaCurve(
        alpha_grid=np.array([0.5, 1.0]),
        values=np.array([1.0, 1.0]),
        residuals=np.zeros(2),
        scale_range=(6, 15),
    )
    with pytest.raises(ValueError, match="closed"):
        large_deviation_spectrum(raw)


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
        closed=True,
    )
    assert np.all(np.isnan(large_deviation_spectrum(closed)))


# ---------------------------------------------------------------------------
# structure functions

def test_monofractal_tau_is_affine():
    tau = structure_function(dirac_pyramid(H=0.5, J=12), default_q_grid())
    expected = 0.5 * tau.q_grid - 1.0
    assert np.max(np.abs(tau.values - expected)) < 1e-9
    assert np.all(tau.residuals < 1e-9)


def test_tau_at_zero_counts_nonzero_fraction():
    tau = structure_function(dirac_pyramid(H=0.8, J=12), np.array([0.0]))
    assert abs(tau.values[0] + 1.0) < 1e-12


def test_tau_finite_for_negative_q_despite_zeros():
    pyr = parabola_pyramid(J=12, seed=0)
    assert any(np.any(l == 0) for l in pyr.levels[5:])
    tau = structure_function(pyr, np.array([-2.0, -1.0, 3.0]))
    assert np.all(np.isfinite(tau.values))


def reference_tau(pyramid, q_grid, scale_count=10):
    """tau(q) from one log-sum-exp of q log2|C| per (q, scale), fitted by
    ordinary least squares: the direct formula the ladder must reproduce."""
    js = np.arange(1, pyramid.J)[-scale_count:]
    q = np.asarray(q_grid, dtype=np.float64)
    y = np.empty((js.size, q.size))
    for row, j in enumerate(js):
        c = np.abs(pyramid.levels[j])
        logc = np.log2(c[c > 0])
        for col, qv in enumerate(q):
            v = qv * logc
            m = v.max()
            y[row, col] = m + np.log2(np.exp2(v - m).sum())
    return np.polyfit(-js.astype(np.float64), y, 1)[0]


LADDER_GRIDS = {
    "default": default_q_grid(),
    "mixed": np.array([-2.0, -1.0, 3.0]),
    "no-zero": np.array([0.5, 1.5, 2.0, 4.0]),
    "negative-only": -np.linspace(0.3, 7.0, 12),
    "unsorted": np.array([3.0, -1.0, 0.2, 7.0, -4.0, 0.2, 1.0]),
    "wide": np.linspace(-50.0, 50.0, 41),
}


@pytest.mark.parametrize("grid", LADDER_GRIDS)
def test_ladder_matches_direct_sums_on_any_grid(grid):
    pyr = generate_coefficients(
        SynthesisConfig(J=12, source=GaussianKernel(m=1.0, sigma=0.5), seed=2))
    q = LADDER_GRIDS[grid]
    tau = structure_function(pyr, q)
    np.testing.assert_array_equal(tau.q_grid, q)
    np.testing.assert_allclose(tau.values, reference_tau(pyr, q), rtol=1e-10, atol=0)


def test_ladder_matches_direct_sums_across_block_boundaries():
    pyr = generate_coefficients(
        SynthesisConfig(J=18, source=GaussianKernel(m=1.0, sigma=0.5), seed=4))
    assert np.count_nonzero(pyr.levels[17]) > LADDER_BLOCK  # fit levels straddle blocks
    q = default_q_grid()
    np.testing.assert_allclose(structure_function(pyr, q).values, reference_tau(pyr, q),
                               rtol=1e-10, atol=0)


def test_ladder_matches_direct_sums_on_sparse_levels():
    pyr = generate_coefficients(SynthesisConfig(J=14, source=FlatLaw(0.7), seed=3))
    assert all(0 < np.count_nonzero(l) < 64 for l in pyr.levels[4:])
    q = default_q_grid()
    np.testing.assert_allclose(structure_function(pyr, q).values, reference_tau(pyr, q),
                               rtol=1e-10, atol=0)


@pytest.mark.parametrize("grid", ["default", "wide"])
def test_ladder_shift_survives_a_300_octave_level(grid):
    # every level spans 2^-300..1 around its own offset, so q log2|C| runs far
    # outside float range and many ladder terms underflow to 0
    rng = np.random.default_rng(7)
    levels = []
    for j in range(12):
        e = -300.0 * rng.random(2**j)
        e[0], e[-1] = 0.0, -300.0
        levels.append(rng.choice([-1.0, 1.0], 2**j) * np.exp2(e - 3.0 * j))
    pyr = CoefficientPyramid(J=12, levels=levels, coarse_mean=0.0)
    q = LADDER_GRIDS[grid]
    tau = structure_function(pyr, q)
    assert np.all(np.isfinite(tau.values))
    np.testing.assert_allclose(tau.values, reference_tau(pyr, q), rtol=1e-10, atol=0)


def test_tau_rejects_empty_scale():
    levels = [np.ones(2**j) for j in range(8)]
    levels[5] = np.zeros(32)
    pyr = CoefficientPyramid(J=8, levels=levels, coarse_mean=0.0)
    with pytest.raises(DegenerateLevelError, match="scale 5"):
        structure_function(pyr, np.array([0.0, 2.0]))


def test_tau_needs_three_scales():
    with pytest.raises(InsufficientScalesError):
        structure_function(three_scale_pyramid(), np.array([2.0]))


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


def test_critical_q_warns_without_sign_change():
    with pytest.warns(UserWarning, match="no sign change"):
        q_c = critical_q(line_tau(default_q_grid(), 0.05))
    assert q_c == -5.0


# ---------------------------------------------------------------------------
# Legendre spectrum

def test_legendre_monofractal_values():
    tau = structure_function(dirac_pyramid(H=0.8, J=12), default_q_grid())
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
    tau = structure_function(parabola_pyramid(J=12, seed=0), default_q_grid())
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
    assert res.lambda_curve.closed is False
    assert res.closed_curve.closed is True


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


def test_default_q_grid_span():
    q = default_q_grid()
    assert q[0] == -5.0
    assert q[-1] == 10.0
    assert np.allclose(np.diff(q), 0.1)
