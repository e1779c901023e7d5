"""Multifractal spectrum estimation from wavelet coefficients.

Both routes from a coefficient pyramid to a spectrum on a common h grid
read one exponent field: ``AlphaField.from_pyramid`` keeps the fit levels
(the finest ``scale_count`` of levels 1 .. J-1), drops the zero
coefficients of each scale j and holds alpha[j][k] = -log2|C[j][k]| / j,
and nothing downstream takes log2|C| again.  The field is the fit range:
both estimators fit every level of the field they are given, and the
default alpha grid spans only those levels' exponents.  Any field sorts its
levels when it is made, so its readers take counts, extremes and quantiles
by index.

  * large-deviation: cumulative counts N_j(alpha) = #{alpha[j][k] <=
    alpha}, log-count growth rates lambda(alpha) fitted across scales,
    upper monotone closure, then d2(h) = h * sup_{alpha <= h}
    lambda_bar(alpha) / alpha restricted to the h range the closure
    itself certifies;
  * Legendre: partition sums S_j(q) = sum_{C != 0} |C|^q = sum over the
    field's scale-j exponents of 2^(-q j alpha), scaling exponents
    tau(q) fitted across scales on the fixed grid ``default_q_grid()``,
    critical order q_c where tau crosses zero, then d1(h) = min over
    q >= q_c of (h q - tau(q)).  The sums are built by a power ladder,
    two exp2 per exponent rather than one per (q, exponent): each side
    of q = 0 multiplies by one ratio per step, the step dq being read
    off the grid (see structure_function).

The ladder runs its blocks on one thread per CPU of the process, and the
main thread adds their partial sums in block order, the order of the
serial loop: tau(q) has the same bits whatever the CPU count.  The
alpha field stays serial: its per-level log2 and sort on the same pool
saved about 0.02 s at J = 22 on a 2-core VM, but the peak RSS of four
analyses in one process grew with each item, to 292-308 MB against
226 MB serial (per-thread allocator arenas).

Counts of zero are missing data, not data: every fit masks them out and
needs at least three usable scales, and grid points whose fit or sup is
undefined stay absent (NaN) end to end.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLevelError, InsufficientScalesError
from .spectra import DEFAULT_GRID_STEP, _integer, _step_grid
from .wavelet import CoefficientPyramid, _map_blocks

DEFAULT_SCALE_COUNT = 10
# Coefficients per block of the partition-sum ladder: the running products
# of one block (512 KiB) stay in cache while every q is walked.  At J = 22
# on a 2-core VM, 2^16 took 0.55 s per tau fit, 2^15 and 2^17 0.7-0.9 s.
LADDER_BLOCK = 2**16


@dataclass
class AlphaField:
    """Per-scale exponents; construction sorts each level in place, ascending."""

    J: int
    levels: dict  # j -> sorted ndarray of finite alphas (zeros dropped)

    def __post_init__(self):
        for alpha in self.levels.values():
            alpha.sort()

    @classmethod
    def from_pyramid(
        cls, pyramid: CoefficientPyramid, scale_count: int = DEFAULT_SCALE_COUNT
    ) -> "AlphaField":
        """The field of the fit levels: the finest scale_count of a pyramid's
        levels 1 .. J-1 (all of them if there are fewer).  This is where the
        fit range is chosen; both estimators fit every level of the field.
        Each level takes its |C| into one new array, which becomes the
        exponents in place; only a level that holds zeros is compressed to
        its nonzero entries, a second array.  Where no level holds zeros,
        the peak is the field plus one byte per coefficient of its top
        level (the nonzero mask).

        Raises ConfigError unless scale_count is an integer of at least 3.
        """
        _integer("scale_count", scale_count, 3)
        levels = {}
        for j in range(1, pyramid.J)[-int(scale_count):]:  # int(): -np.uint64 wraps
            alpha = np.abs(pyramid.levels[j])
            nonzero = alpha > 0
            if not nonzero.all():
                alpha = alpha[nonzero]
            np.log2(alpha, out=alpha)
            np.negative(alpha, out=alpha)
            alpha /= j
            levels[j] = alpha
        return cls(J=pyramid.J, levels=levels)


@dataclass
class LambdaCurve:
    alpha_grid: np.ndarray
    values: np.ndarray       # NaN where fewer than 3 scales had N_j >= 1
    residuals: np.ndarray
    scale_range: tuple


@dataclass
class TauCurve:
    q_grid: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    scale_range: tuple


def _fit_scales(field: AlphaField):
    """The field's scales, ascending, as the regression abscissae: every fit
    reads every level of the field it is given, so the field is the fit
    range (``from_pyramid`` chooses it)."""
    js = sorted(field.levels)
    if len(js) < 3:
        raise InsufficientScalesError(
            f"need at least 3 scales for regression, have {len(js)} (J = {field.J})"
        )
    return np.array(js, dtype=np.float64)


def _masked_ols(x, y, mask):
    """Per-column least squares of y against x using only masked rows.

    Returns (slope, rms residual), NaN where fewer than 3 rows survive.
    """
    w = mask.astype(np.float64)
    yw = np.where(mask, y, 0.0)
    n = w.sum(axis=0)
    sx = (w * x[:, None]).sum(axis=0)
    sy = yw.sum(axis=0)
    sxx = (w * x[:, None] ** 2).sum(axis=0)
    sxy = (yw * x[:, None]).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = n * sxx - sx**2
        slope = (n * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / n
        resid = np.where(mask, y - slope[None, :] * x[:, None] - intercept[None, :], 0.0)
        rms = np.sqrt((resid**2).sum(axis=0) / n)
    bad = n < 3
    slope[bad] = np.nan
    rms[bad] = np.nan
    return slope, rms


def estimate_lambda(field: AlphaField, alpha_grid: np.ndarray) -> LambdaCurve:
    """Fit log2 N_j(alpha) against j over every scale of the field."""
    x = _fit_scales(field)
    counts = np.empty((x.size, alpha_grid.size))
    for row, j in enumerate(x.astype(int)):
        counts[row] = np.searchsorted(field.levels[j], alpha_grid, side="right")
    mask = counts >= 1
    y = np.log2(np.maximum(counts, 1.0))  # 0 where the count is 0
    slope, rms = _masked_ols(x, y, mask)
    return LambdaCurve(
        alpha_grid=np.asarray(alpha_grid, dtype=np.float64),
        values=slope,
        residuals=rms,
        scale_range=(int(x[0]), int(x[-1])),
    )


def upper_closure(curve: LambdaCurve) -> LambdaCurve:
    """Running max over alpha; NaN entries pass through without spreading."""
    return LambdaCurve(
        alpha_grid=curve.alpha_grid,
        values=np.fmax.accumulate(curve.values),
        residuals=curve.residuals,
        scale_range=curve.scale_range,
    )


def large_deviation_spectrum(curve: LambdaCurve) -> np.ndarray:
    """d2(h) = h * sup over alpha <= h of lambda(alpha) / alpha, on the
    curve's own alpha grid; where every lambda up to h is negative or NaN,
    the point is absent (negative values participate, they only lower the
    sup).  That is read off the lambdas, not the ratios: a ratio has the
    sign of its lambda but can underflow to -0.0, and a running max of
    +0.0 and -0.0 may keep either.

    The raw curve and its upper closure give the same d2: a closed value
    at a is some earlier lambda(b) divided by a > b, so wherever the sup
    is nonnegative it is attained at a raw value, and the closure keeps
    the running max of the lambdas, which decides presence.
    """
    h = curve.alpha_grid
    sup = np.fmax.accumulate(curve.values / h)
    return np.where(np.fmax.accumulate(curve.values) >= 0, h * sup, np.nan)


def structure_function(field: AlphaField) -> TauCurve:
    """Fit log2 S_j(q) against -j on ``default_q_grid()`` over every scale
    of the field, where S_j(q) sums |C|^q = 2^(-q j alpha) over the field's
    scale-j exponents.

    Each fit level is shifted by its extreme log2|C| = -j alpha, ext_j =
    max for q >= 0 and min for q < 0 (-j times the level's first or last
    alpha), so every term
    2^(q (log2|C| - ext_j)) is at most 1 and the level's sum is at least
    1: log2 S_j(q) = q ext_j + log2 of that sum is finite for any q, and a
    term that underflows to 0 is below 2^-1074 of the sum.

    The terms are built by a power ladder: q = 0 counts the exponents,
    and each side of it is walked outward multiplying by one ratio
    r = 2^(dq (log2|C| - ext_j)), with dq = q[k0 +- 1] - q[k0] read off
    the grid at q[k0] = 0: two exp2 per coefficient.  The walk runs over
    blocks of LADDER_BLOCK coefficients of the field's levels laid end to end,
    so that the running products stay in cache across all q.  Each block
    builds its own slice of -j alpha from the field's levels; no
    concatenated copy of the levels is made, and beyond the field the
    ladder holds about six block-sized arrays (3 MB) per worker.  The
    block length is a constant, not a parameter: it changes tau(q) only
    through the summation order (by ~1e-14 relative), so it is chosen
    once for speed and a given input always gives the same bits.

    Each block fills its own (q, level) table of partial sums; more than
    one block runs on one thread per CPU of the process, a single block
    (a field of J <= 16 with the default scales) inline.  The tables are
    added into the sums in block order, as the serial loop does, so the
    bits do not depend on the CPU count.
    """
    x = _fit_scales(field)
    js = x.astype(int)
    for j in js:
        if not field.levels[j].size:
            raise DegenerateLevelError(
                f"scale {j} has no nonzero coefficients; tau(q) is undefined there"
            )
    levels = [field.levels[j] for j in js]
    starts = np.cumsum([0] + [level.size for level in levels])
    # a sorted level's ends give the extremes of -j alpha exactly (monotone rounding)
    top = -x * np.array([level[0] for level in levels])
    bottom = -x * np.array([level[-1] for level in levels])
    q = default_q_grid()
    k0 = int(np.searchsorted(q, 0.0))

    def block_sums(b0):
        # (first level, per-q sums of this block's part of each level it meets)
        size = min(LADDER_BLOCK, starts[-1] - b0)
        lo = int(np.searchsorted(starts, b0, side="right")) - 1
        hi = int(np.searchsorted(starts, b0 + size))
        cuts = np.maximum(starts[lo:hi], b0) - b0  # level starts inside the block
        lengths = np.diff(np.append(cuts, size))
        block = np.empty(size)  # this block's slice of the levels' -j alpha
        for i, a, n in zip(range(lo, hi), cuts, lengths):
            k = b0 + a - starts[i]
            np.multiply(-js[i], levels[i][k : k + n], out=block[a : a + n])
        part = np.empty((q.size, hi - lo))
        part[k0] = lengths
        for ks, ext in ((range(k0 + 1, q.size), top), (range(k0 - 1, -1, -1), bottom)):
            d = block - np.repeat(ext[lo:hi], lengths)
            r = np.exp2((q[ks[0]] - q[k0]) * d)
            p = np.ones_like(d)
            for k in ks:
                p *= r
                part[k] = np.add.reduceat(p, cuts)
        return lo, part

    sums = np.zeros((q.size, x.size))
    for lo, part in _map_blocks(block_sums, range(0, starts[-1], LADDER_BLOCK)):
        sums[:, lo : lo + part.shape[1]] += part  # block order: the serial summation order
    ext = np.where(q[:, None] >= 0, top, bottom)
    y = (q[:, None] * ext + np.log2(sums)).T
    mask = np.ones_like(y, dtype=bool)
    slope, rms = _masked_ols(-x, y, mask)
    return TauCurve(q_grid=q, values=slope, residuals=rms, scale_range=(int(x[0]), int(x[-1])))


def critical_q(curve: TauCurve) -> float:
    """Smallest zero of the piecewise-linear interpolant of tau(q).

    Scans ascending q for a sign change and bisects that segment down
    to 1e-8.  Without any sign change the smallest grid q is returned
    with a warning (the zero lies outside the grid).  Known defect: ``f``
    reads ``lo`` as bisection moves it, missing the zero (ROADMAP item 1).
    """
    q = curve.q_grid
    t = curve.values
    for i in range(q.size - 1):
        if t[i] == 0.0:
            return float(q[i])
        if (t[i] < 0.0 < t[i + 1]) or (t[i] > 0.0 > t[i + 1]):
            lo, hi = float(q[i]), float(q[i + 1])
            flo = float(t[i])
            slope = (float(t[i + 1]) - flo) / (hi - lo)
            f = lambda z: flo + slope * (z - lo)
            while hi - lo > 1e-8:
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    if t[-1] == 0.0:
        return float(q[-1])
    warnings.warn(
        "tau(q) has no sign change on the q grid; falling back to the smallest grid q",
        stacklevel=2,
    )
    return float(q[0])


def legendre_spectrum(curve: TauCurve, q_c: float, h_grid: np.ndarray) -> np.ndarray:
    """d1(h) = min over q in {q_c} union grid points >= q_c of h q - tau(q)."""
    keep = curve.q_grid >= q_c - 1e-12
    qs = curve.q_grid[keep]
    ts = curve.values[keep]
    if qs.size == 0 or qs[0] > q_c + 1e-12:
        qs = np.concatenate([[q_c], qs])
        ts = np.concatenate([[0.0], ts])  # tau(q_c) = 0 by definition of q_c
    h = np.asarray(h_grid, dtype=np.float64)
    return (h[:, None] * qs[None, :] - ts[None, :]).min(axis=1)


@dataclass
class EstimatedSpectrum:
    h_grid: np.ndarray
    d2: np.ndarray           # large-deviation estimate, NaN where absent
    d1: np.ndarray           # Legendre estimate
    meta: dict = field(default_factory=dict)


@dataclass
class AnalysisResult:
    lambda_curve: LambdaCurve
    closed_curve: LambdaCurve
    tau_curve: TauCurve
    spectrum: EstimatedSpectrum


def default_q_grid() -> np.ndarray:
    return np.arange(-50, 101) / 10.0


def _upper_quantile(a) -> float:
    """np.quantile(a, 0.9999) of a sorted level a, bit for bit, by numpy's
    linear rule: at v = (n - 1) q it reads lo = a[i] and hi = a[i + 1],
    i = floor(v), g = v - i, and returns hi - (hi - lo) (1 - g) if g >= 1/2,
    else lo + (hi - lo) g.  test_upper_quantile_is_numpys_quantile_of_a_sorted_level
    holds the two equal."""
    if a.size == 1:
        return float(a[0])
    v = (a.size - 1) * 0.9999
    lo, hi = a[int(v) : int(v) + 2]
    d, g = hi - lo, v - int(v)
    return float(hi - d * (1 - g) if g >= 0.5 else lo + d * g)


def _default_alpha_grid(field: AlphaField, step: float) -> np.ndarray:
    upper = 2.0
    for a in field.levels.values():
        if a.size:
            upper = max(upper, _upper_quantile(a) + 1.0)
    return _step_grid(min(upper, 64.0), step)


def analyze_pyramid(
    pyramid: CoefficientPyramid,
    scale_count: int = DEFAULT_SCALE_COUNT,
    grid_step: float = DEFAULT_GRID_STEP,
) -> AnalysisResult:
    """Run both estimators on a shared h grid.

    The d2 estimate is additionally cut off above the h_max certified by
    the closure itself (h_max = 1 / sup lambda_bar(alpha)/alpha, plus
    half a grid step of slack): beyond it the formula grows linearly
    out of the last ratio and would fabricate spectrum mass.

    The pyramid is released as soon as the alpha field is made: a pyramid
    that only the call holds (a temporary argument, on CPython >= 3.11)
    is freed before the fits run, unless a wrapper keeps the call's
    arguments.  ``spectrum.meta["J"]`` keeps its J.

    Raises ConfigError unless scale_count is an integer of at least 3
    and grid_step is positive and finite.
    """
    field_ = AlphaField.from_pyramid(pyramid, scale_count)
    del pyramid
    lam = estimate_lambda(field_, _default_alpha_grid(field_, grid_step))
    closed = upper_closure(lam)
    d2 = large_deviation_spectrum(closed)
    sup_all = np.fmax.reduce(closed.values / closed.alpha_grid)
    h_max_est = 1.0 / sup_all if sup_all > 0 else np.nan
    nonneg = closed.values >= 0  # a fitted slope is finite or NaN, and NaN >= 0 is False
    h_min_est = float(closed.alpha_grid[nonneg][0]) if nonneg.any() else np.nan
    d2 = np.where(closed.alpha_grid > h_max_est + 0.5 * grid_step, np.nan, d2)
    tau = structure_function(field_)
    q_c = critical_q(tau)
    # critical_q falls back to q_grid[0], where tau is nonzero, only without a sign change
    q_c_found = not (q_c == tau.q_grid[0] and tau.values[0] != 0.0)
    d1 = legendre_spectrum(tau, q_c, closed.alpha_grid)
    spectrum = EstimatedSpectrum(
        h_grid=closed.alpha_grid,
        d2=d2,
        d1=d1,
        meta={
            "J": field_.J,
            "q_c": q_c,
            "q_c_found": q_c_found,
            "h_min": h_min_est,
            "h_max": h_max_est,
            "scale_range": closed.scale_range,
        },
    )
    return AnalysisResult(
        lambda_curve=lam,
        closed_curve=closed,
        tau_curve=tau,
        spectrum=spectrum,
    )
