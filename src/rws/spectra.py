"""Singularity spectra and upper logarithmic densities of coefficient laws.

A spectrum curve assigns to each Hoelder exponent h a dimension d(h) in
[0, 1], sampled on a finite grid; absent values (exponents that do not
occur) are stored as NaN and never enter arithmetic unmasked.  The span
[h_min, h_max] of a curve runs from its first to its last present sample.
Both sampled types, ``SpectrumCurve`` and ``LogDensity``, check their own
shape when made (a positive, finite, strictly increasing grid of equal
length to its values, and for a curve one present sample), so no reader
checks it again.  An admissible target spectrum satisfies:

  * d(h) <= 1 everywhere it is present,
  * d is present on every grid point of [h_min, h_max] and nonnegative there,
  * h -> d(h)/h is non-decreasing,
  * d(h_max) = 1.

``spectrum_from_rho`` maps an upper logarithmic density rho to the
spectrum it generates,

    d(h) = h * sup_{0 < a <= h} rho(a)/a   on [h_min, h_max],

with h_max = 1/sup_{a>0} rho(a)/a and h_min the infimum of {rho >= 0}.
The sup is a running maximum over the points each density supplies
(``spectrum_grid``), no interpolation.  That grid is the one place the
span is decided, and h_min and h_max are points of it: a sampled
``LogDensity`` gives its samples plus h_max, where an h_max within a
relative 1e-9 of a sample is that sample; a ``Kernel`` gives a step grid
out to 4 h_max that holds h_min, alpha_t and h_max of one ``ratio_max``
solve exactly.  Both snaps are relative, so a density and its rescaling
in h get the same grid.

Closed-form densities come from four kernel families used for
self-similar cascade models: gaussian, shifted gamma, shifted poisson
(the log-Poisson cascade) and dirac (exact monofractal).  Each family is
a frozen dataclass deriving from ``Kernel`` and carries its own
formulas as methods: the density ``rho``, the ``peak`` where rho = 1,
``_threshold``, its domain check and its one threshold alpha* on its
location parameter (its first field: m, alpha0 or H), ``ratio_max``
(h_min, the maximizer alpha_t of rho(a)/a and h_max from one solve, for
both ``spectrum_from_rho`` and the synthesis regularity warning), and the
scale-j exponent law of the self-similarity semigroup (``scale_cap``,
``scale_quantile``).  A kernel checks itself when made: ``__post_init__``
runs ``kernel_validity`` once, which refuses a non-finite parameter, one
outside the family's domain, and location <= alpha* (validity is h_min >
0, rho < 0 near 0), and the kernel keeps the alpha* it returns, so no
reader checks or solves it again; the base ``Kernel`` reads h_min =
location - alpha* off it.  alpha* is sigma sqrt(2 ln 2) for the gaussian, 0 for dirac, and
minus the left zero of the family's own shifted density for gamma and
poisson; a poisson density puts its K = 0 atom, 1 - c log2(e), at
alpha0, so for c <= ln 2 it has no left zero and alpha* is 0.  The
gaussian span is closed form; the shifted families solve alpha* and
alpha_t through one bracketed solver, ``_root``, to a tolerance relative
to the kernel's own scale, and where their rho(a)/a falls from alpha0
on, alpha_t is alpha0.

Roots are solved in-package (``_root``, a port of scipy's brentq).  The
one scipy module loaded is scipy.special, on a kernel's first scale-j
quantile, in the ``scale_quantile`` of the gaussian (ndtr, ndtri), gamma
(gammaincinv) and poisson (gammaincc) families.  Kernel spectra, spectrum
curves, flat laws and the estimators never load scipy; loading
scipy.optimize as well would cost about 23 MB of RSS and 0.1-0.2 s.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConfigError,
    EmptySpectrumError,
    FlatSpectrumError,
    KernelValidityError,
    MathValidityError,
    UnsupportedVariantError,
)

LOG2E = math.log2(math.e)

_TOL_ONE = 1e-9       # d(h_max) = 1 and d <= 1 slack
_TOL_ZERO = 1e-12     # d >= 0 slack
_TOL_RATIO = 1e-9     # monotonicity slack for d(h)/h
DEFAULT_GRID_STEP = 0.005   # h grid step of kernel spectra, analyses and sampled curves
# Steps of the largest h or alpha grid sized from outside input (a grid step,
# a kernel parameter, a spectrum's h_max).  Default grids hold at most 12,800
# points (an analysis) or under 1,000 (a kernel); an analysis at the bound
# builds a 1.3 GB (h x q) Legendre table.
MAX_GRID_STEPS = 2**20
# ``_root``'s relative tolerance (just above 4 eps, the least scipy's brentq
# accepts) and its step cap
_ROOT_RTOL = 8.9e-16
_ROOT_MAXITER = 3000
# The least absolute tolerance a caller gives ``_root``: two least subnormals,
# so that half of it, Brent's step floor, is still one and not 0
_ROOT_XTOL_MIN = 1e-323


# ---------------------------------------------------------------------------
# kernel laws

def _root(f, lo, hi, xtol):
    """The zero of f bracketed by [lo, hi], by Brent's method to within
    xtol or 8.9e-16 of the zero, whichever is larger.  Callers give xtol
    relative to the kernel's own scale, so a zero is found to the same
    digits at any scale: 1e-15 of the bracket, or 1e-15 of lo > 0 where
    the zero lies right of lo, but never below _ROOT_XTOL_MIN, on which
    a subnormal bracket still converges.  A zero that lies far nearer lo than hi (a
    gamma that rises steeply against its mode offset) can take some
    1,500 steps; the cap leaves room for that.

    A line-for-line port of scipy's ``brentq`` (scipy/optimize/Zeros/
    brentq.c, BSD-3-Clause; R. P. Brent, Algorithms for Minimization
    Without Derivatives, 1973): the same float for every input, and its
    refusals with the same exception classes, ValueError for xtol <= 0,
    a NaN value of f or f(lo), f(hi) of one sign, and RuntimeError after
    _ROOT_MAXITER steps.  Every value of f is taken as a Python float, as
    scipy's C callback does, so numpy scalars raise no overflow warning;
    a division by zero, which in C gives an infinite or NaN trial step
    and so a bisection, bisects."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the value of f at {x!r} is NaN")
        return fx

    xpre, xcur = float(lo), float(hi)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(lo) and f(hi) must have different signs")
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf   # bisect unless an interpolation step is taken
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):   # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"no convergence after {_ROOT_MAXITER} steps, value is {xcur!r}")


def _left_zero(f, peak):
    """The zero of f between 0 (excluded) and peak, where f >= 0: the
    bracket starts just right of 0 and walks toward it while f >= 0, and
    once the walk has moved the zero lies between its last two steps,
    a bracket about as wide as the zero is far from 0.  A zero nearer 0
    than the least subnormal is 0 itself; a subnormal zero is solved to
    the tolerance floor, where 1e-15 of its bracket would round to 0."""
    hi, step = peak, peak * 1e-12
    while f(step) >= 0.0:
        hi, step = step, step / 2.0
        if step == 0.0:   # f(0) may be log2(0); not evaluated
            return 0.0
    return _root(f, step, hi, max(1e-15 * (hi - step), _ROOT_XTOL_MIN))


def gaussian_threshold(sigma: float) -> float:
    """Smallest admissible mean for a gaussian kernel of width sigma."""
    return sigma * math.sqrt(2.0 * math.log(2.0))


class Kernel:
    """Base of the kernel families; subclasses supply ``_rho`` (on an
    array), ``peak``, ``_threshold``, ``ratio_max``, ``scale_cap`` and
    ``scale_quantile``.  A family's first field is its location
    parameter, and alpha* its one threshold: h_min is location - alpha*,
    and the kernel is valid iff h_min > 0, that is iff location > alpha*.
    A kernel checks itself when made (``kernel_validity``) and keeps the
    alpha* it solved; that is not a field, so ``fields``, ``repr`` and
    ``==`` see only the parameters.  Scale-j laws put no mass at +inf:
    kernels produce no zero coefficients."""

    def __post_init__(self):
        object.__setattr__(self, "_alpha_star", kernel_validity(self))

    def rho(self, alpha):
        """Upper logarithmic density (vectorized; -inf allowed; a scalar
        argument gives a float)."""
        out = self._rho(np.asarray(alpha, dtype=np.float64))
        return out if out.shape else float(out)

    def alpha_star(self) -> float:
        """The threshold on the location parameter, solved when the kernel was made."""
        return self._alpha_star

    def h_min(self) -> float:
        """The left edge of {rho >= 0}, location - alpha*; where that rounds
        onto a point where rho = -inf (a gamma whose zero is below the
        resolution of its shift point), the next float up."""
        h = getattr(self, fields(self)[0].name) - self.alpha_star()
        return h if self.rho(h) > -math.inf else float(np.nextafter(h, math.inf))

    def spectrum_grid(self, grid_step: float):
        """(grid, rho on it, h_min, h_max) for ``spectrum_from_rho``: the
        step grid with h_min, alpha_t and h_max of one ``ratio_max`` solve
        as exact points, step points within a relative 1e-9 of them dropped."""
        h_min, alpha_t, h_max = self.ratio_max()
        grid = _merge_points([h_min, alpha_t, h_max], _step_grid(4.0 * h_max, grid_step))
        return grid, self.rho(grid), h_min, h_max


class _ShiftedKernel(Kernel):
    """Families supported on (alpha0, inf): rho = -inf at and left of
    alpha0 (the poisson family puts its K = 0 atom at alpha0 itself);
    subclasses supply ``_rho_shifted(t)`` for t = a - alpha0 > 0, its
    derivative ``rho_prime`` in a, and the mode offset ``_offset()``,
    where rho = 1."""

    def _rho(self, a):
        t = a - self.alpha0
        out = np.full(a.shape, -np.inf)
        pos = t > 0
        out[pos] = self._rho_shifted(t[pos])
        return out

    def peak(self) -> float:
        return self.alpha0 + self._offset()

    def _threshold(self) -> float:
        """Minus the left zero of the shifted density: alpha0 > alpha* puts
        that zero, h_min, right of 0.  Never -0.0."""
        return 0.0 - _left_zero(self._rho_shifted, self._offset())

    def ratio_max(self):
        """(h_min, alpha_t, h_max): the left edge of {rho >= 0}, the
        maximizer alpha_t of rho(a)/a, and h_max = 1/max rho(a)/a, for a
        valid kernel.  Where rho(a)/a falls from h_min on (a poisson whose
        K = 0 atom at alpha0 dominates), alpha_t is h_min itself.
        MathValidityError where the mode offset is below the resolution of
        alpha0: the peak rounds onto or below h_min, or so near it that
        rho(a)/a still rises there."""
        h_min = self.h_min()
        peak = self.peak()
        # the maximizer solves f(a) = rho'(a) a - rho(a) = 0, bracketed by
        # the left zero of rho (ratio rising, f > 0) and the peak (ratio
        # falling).  Where h_min is the shift point alpha0 (a poisson with
        # c <= ln 2), rho' is infinite there, so the bracket starts inside,
        # at least one ulp; rho is concave, so f falls, and where f <= 0
        # there already rho(a)/a only falls and its sup is at h_min itself
        lo = h_min
        if h_min == self.alpha0:
            lo = max(h_min + (peak - h_min) * 1e-12, np.nextafter(h_min, peak))
        f = lambda a: self.rho_prime(a) * a - self.rho(a)
        f_lo = f(lo) if peak > h_min else math.nan   # no bracket: refused below
        # f > 0 at both ends: the peak is so near h_min that the ratio still rises there
        if not peak > h_min or (f_lo > 0.0 and f(peak) > 0.0):
            _, *shape = fields(self)
            params = ", ".join(f"{p.name}={getattr(self, p.name):.12g}" for p in shape)
            raise MathValidityError(f"the mode offset of ({params}) is below the resolution "
                                    f"of alpha0 = {self.alpha0:.12g}: rho has no span")
        alpha_t = h_min if f_lo <= 0.0 else _root(f, lo, peak, max(1e-15 * lo, _ROOT_XTOL_MIN))
        return h_min, alpha_t, 1.0 / (self.rho(alpha_t) / alpha_t)


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """rho(a) = 1 - log2(e) (a-m)^2 / (2 sigma^2); valid iff m > alpha* =
    sigma*sqrt(2 ln 2), with sigma^2 a normal float.

    Scale j: Normal(m, sigma^2/j) conditioned on alpha > 0; a sampled
    alpha is >= 0, the quantile clipped at 0, where it can round below."""

    m: float
    sigma: float

    def _rho(self, a):
        return 1.0 - LOG2E * (a - self.m) ** 2 / (2.0 * self.sigma**2)

    def peak(self) -> float:
        return self.m

    def _threshold(self) -> float:
        # rho divides by sigma**2; below the least normal float it has lost digits
        if not (self.sigma > 0 and self.sigma**2 >= np.finfo(np.float64).tiny):
            raise KernelValidityError("sigma <= 0, or sigma**2 is below the least normal float")
        return gaussian_threshold(self.sigma)

    def ratio_max(self):
        """(h_min, alpha_t, h_max) in closed form: rho(a)/a peaks at
        alpha_t = sqrt(m - alpha*) sqrt(m + alpha*), each root taken on its
        own so that the product cannot underflow."""
        h_min = self.h_min()
        alpha_t = math.sqrt(h_min) * math.sqrt(self.m + self.alpha_star())
        return h_min, alpha_t, 1.0 / (self.rho(alpha_t) / alpha_t)

    def scale_cap(self, j: int) -> float:
        return self.m + 12.0 * self.sigma / math.sqrt(j)

    def scale_quantile(self, j: int, u):
        from scipy.special import ndtr, ndtri

        s = self.sigma / math.sqrt(j)
        z0 = ndtr(-self.m / s)          # one-draw conditioning on alpha > 0
        return np.maximum(self.m + s * ndtri(z0 + u * (1.0 - z0)), 0.0)


@dataclass(frozen=True)
class ShiftedGammaKernel(_ShiftedKernel):
    """rho(a) = 1 + nu log2(a-a0) - beta log2(e) (a-a0) + nu log2(beta e / nu)
    for a > a0, -inf otherwise; valid iff a0 > alpha*(nu, beta).

    Scale j: alpha0 + Gamma(j nu, beta)/j."""

    alpha0: float
    nu: float
    beta: float

    def _rho_shifted(self, t):
        const = 1.0 + self.nu * math.log2(self.beta * math.e / self.nu)
        return const + self.nu * np.log2(t) - self.beta * LOG2E * t

    def rho_prime(self, a):
        t = a - self.alpha0
        return self.nu / (t * math.log(2.0)) - self.beta * LOG2E

    def _offset(self) -> float:
        return self.nu / self.beta

    def _threshold(self) -> float:
        if self.nu <= 0 or self.beta <= 0:
            raise KernelValidityError("nu <= 0 or beta <= 0")
        return super()._threshold()

    def scale_cap(self, j: int) -> float:
        return self.peak() + 12.0 * (math.sqrt(self.nu / j) / self.beta)

    def scale_quantile(self, j: int, u):
        from scipy.special import gammaincinv

        x = gammaincinv(j * self.nu, u) / self.beta
        return self.alpha0 + x / j


@dataclass(frozen=True)
class ShiftedPoissonKernel(_ShiftedKernel):
    """rho(a) = 1 - c log2(e) + (a-a0) log2(c e / (a-a0)) for a >= a0,
    -inf otherwise; valid iff a0 > alpha*(c).  At a0 itself rho is
    1 - c log2(e), the K = 0 atom of Poisson(j c).

    Scale j: alpha0 + Poisson(j c)/j."""

    alpha0: float
    c: float

    def _rho(self, a):
        out = super()._rho(a)
        out[a == self.alpha0] = 1.0 - self.c * LOG2E   # t log2(ce/t) -> 0 as t -> 0
        return out

    def _rho_shifted(self, t):
        return 1.0 - self.c * LOG2E + t * np.log2(self.c * math.e / t)

    def rho_prime(self, a):
        t = a - self.alpha0
        return math.log2(self.c * math.e / t) - LOG2E

    def _offset(self) -> float:
        return self.c

    def _threshold(self) -> float:
        """0 for c <= ln 2, where the K = 0 atom at alpha0 is already >= 0
        and rho has no left zero: h_min is alpha0 itself."""
        if self.c <= 0:
            raise KernelValidityError("c <= 0")
        if 1.0 - self.c * LOG2E >= 0.0:
            return 0.0
        return super()._threshold()

    def scale_cap(self, j: int) -> float:
        return self.peak() + 12.0 * math.sqrt(self.c / j)

    def scale_quantile(self, j: int, u):
        from scipy.special import gammaincc

        mu = j * self.c
        kmax = int(math.ceil(mu + 12.0 * math.sqrt(mu))) + 20
        cdf = gammaincc(np.arange(1, kmax + 2, dtype=np.float64), mu)
        k = np.searchsorted(cdf, u, side="left")
        return self.alpha0 + k / j


@dataclass(frozen=True)
class DiracKernel(Kernel):
    """Monofractal law: rho = 1 at a = H, -inf elsewhere; exactly H at
    every scale; valid iff H > alpha* = 0."""

    H: float

    def _rho(self, a):
        return np.where(np.abs(a - self.H) <= 1e-12 * self.H, 1.0, -np.inf)

    def peak(self) -> float:
        return self.H

    def _threshold(self) -> float:
        return 0.0

    def ratio_max(self):
        return self.H, self.H, self.H

    def scale_cap(self, j: int) -> float:
        return self.H

    def scale_quantile(self, j: int, u):
        return np.full(u.shape, self.H)


def kernel_validity(kernel) -> float:
    """alpha* of a valid kernel, which every kernel runs once when made.
    KernelValidityError names a non-finite parameter (root solves need
    finite ones), a parameter outside the family's domain, or location <=
    alpha*, which puts rho >= 0 arbitrarily close to 0.  In floats location
    - alpha* > 0 exactly when location > alpha*, so this is the verdict
    h_min > 0."""
    if not isinstance(kernel, Kernel):
        raise UnsupportedVariantError(f"unknown kernel {type(kernel).__name__}")
    location, *rest = fields(kernel)
    for f in fields(kernel):
        if not math.isfinite(getattr(kernel, f.name)):
            raise KernelValidityError(f"{f.name} = {getattr(kernel, f.name)} is not finite")
    star = kernel._threshold()
    if not getattr(kernel, location.name) > star:
        params = f"({', '.join(f.name for f in rest)})" if rest else ""
        raise KernelValidityError(f"{location.name} <= alpha*{params} = {star:.12g}")
    return star


# ---------------------------------------------------------------------------
# spectrum curves

@dataclass(eq=False)
class SpectrumCurve:
    """Spectrum d(h) sampled on a grid; NaN = absent.  The span
    [h_min, h_max] is read off the first and last present samples.

    Checks its own shape when made: h_grid and d_values become float64
    arrays of equal, nonzero length, h positive, finite and strictly
    increasing, with at least one present d; MathValidityError otherwise.
    Whether the samples are admissible is ``check_admissible``'s question."""

    h_grid: np.ndarray
    d_values: np.ndarray

    def __post_init__(self):
        self.h_grid, self.d_values = _sampled_grid(self.h_grid, self.d_values, "h", "d")
        if np.isnan(self.d_values).all():
            raise MathValidityError("curve has no present values")

    def present(self):
        return ~np.isnan(self.d_values)

    @property
    def h_min(self) -> float:
        return float(self.h_grid[self.present()][0])

    @property
    def h_max(self) -> float:
        return float(self.h_grid[self.present()][-1])


def curve_from_function(fn, h_min: float, h_max: float):
    """Sample d = fn(h) on [h_min, h_max] with approximately DEFAULT_GRID_STEP.

    As for any ``SpectrumCurve``, the span is that of the present samples:
    a NaN at either end narrows it, and a NaN inside it is an absent value
    that ``check_admissible`` reports."""
    if h_max < h_min:
        raise MathValidityError("h_max < h_min")
    if h_max == h_min:
        grid = np.array([h_min])
    else:
        n = max(1, round((h_max - h_min) / DEFAULT_GRID_STEP))
        grid = np.linspace(h_min, h_max, n + 1)
    d = np.array([fn(h) for h in grid], dtype=np.float64)
    return SpectrumCurve(h_grid=grid, d_values=d)


def curve_from_samples(h_grid, d_values) -> SpectrumCurve:
    """``SpectrumCurve(h_grid, d_values)``: the curve checks its samples."""
    return SpectrumCurve(h_grid=h_grid, d_values=d_values)


def check_admissible(curve: SpectrumCurve) -> list[str]:
    """The admissibility conditions the curve violates, as messages; an
    empty list means admissible.  Never raises: the curve's grid and its
    present sample were checked when it was made.  Each slack is scale
    free: d is a dimension, and the d(h)/h slack is 1e-9 / h_max, so a
    curve and its rescaling in h get one verdict."""
    h, d = curve.h_grid, curve.d_values
    idx = np.flatnonzero(~np.isnan(d))
    v = []
    if idx[-1] - idx[0] + 1 != idx.size:
        v.append("absent value inside [h_min, h_max]")
    dp = d[idx]
    if np.any(dp > 1.0 + _TOL_ONE):
        v.append("d exceeds 1")
    if np.any(dp < -_TOL_ZERO):
        v.append("negative d inside [h_min, h_max]")
    # d1/h1 - d0/h0 < -tol/h_max, multiplied through by h0 h1 > 0: the
    # products stay finite where a subnormal h would overflow the quotient,
    # and the slack scales with 1/h_max, the largest ratio an admissible
    # curve has, so a curve and its rescaling get one verdict
    hp = h[idx]
    if np.any(dp[1:] * hp[:-1] - dp[:-1] * hp[1:] < -_TOL_RATIO * hp[:-1] * (hp[1:] / hp[-1])):
        v.append("d(h)/h is not non-decreasing")
    if abs(dp[-1] - 1.0) > _TOL_ONE:
        v.append(f"d at h_max is {float(dp[-1])!r}, expected 1")
    return v


# ---------------------------------------------------------------------------
# upper logarithmic densities

@dataclass(eq=False)
class LogDensity:
    """An upper logarithmic density sampled as (alpha_grid, rho_values);
    like a ``Kernel`` it supplies ``spectrum_grid``.

    Checks its own shape when made: alpha_grid and rho_values become
    float64 arrays of equal, nonzero length, alpha positive, finite and
    strictly increasing, a NaN rho reads as -inf (absent), and rho is at
    most 1 + 1e-9; MathValidityError otherwise."""

    alpha_grid: np.ndarray
    rho_values: np.ndarray

    def __post_init__(self):
        a, r = _sampled_grid(self.alpha_grid, self.rho_values, "alpha", "rho")
        r = np.where(np.isnan(r), -np.inf, r)
        if np.any(r > 1.0 + _TOL_ONE):
            raise MathValidityError("log-density exceeds 1")
        self.alpha_grid, self.rho_values = a, r

    @classmethod
    def from_kernel(cls, kernel):
        """The kernel itself: a ``Kernel`` is a density already, checked when made."""
        return kernel

    def spectrum_grid(self, grid_step: float):
        """(grid, rho on it, h_min, h_max) for ``spectrum_from_rho``; grid_step
        is not used.  The grid is the samples plus h_max; an h_max within
        a relative 1e-9 of a sample snaps onto it, and that sample is the
        h_max returned, with rho capped at alpha / h_max."""
        rho = self.rho_values
        finite = np.isfinite(rho)
        if not finite.any() or np.max(rho[finite]) < -_TOL_ZERO:
            raise EmptySpectrumError(
                "log-density is negative everywhere; the process is smooth"
            )
        if np.max(rho[finite]) <= _TOL_ZERO:
            raise FlatSpectrumError(
                "log-density touches zero but is never positive; use the flat "
                "(constant-exponent) construction instead"
            )
        h_min = float(self.alpha_grid[rho >= 0.0][0])   # positive, as every alpha is
        # at a subnormal alpha a ratio can pass the largest float: an infinite
        # sup gives h_max = 0, a grid point that ``spectrum_from_rho``
        # refuses, and an infinite cap (alpha / 0 among them) leaves rho as it is
        with np.errstate(over="ignore"):
            h_max = 1.0 / float(np.max(rho[finite] / self.alpha_grid[finite]))
        grid = _merge_points(self.alpha_grid, [h_max])
        h_max = grid[np.argmin(np.abs(grid - h_max))]
        # merged grid differs from the density grid only by the inserted
        # h_max, whose running max is already the global one.  rho is capped
        # at alpha / h_max: where h_max snapped up onto a sample, that moves
        # rho by at most the snap and keeps d(h)/h at most 1/h_max
        vals = np.full(grid.shape, -np.inf)
        with np.errstate(over="ignore", divide="ignore"):
            vals[np.searchsorted(grid, self.alpha_grid)] = np.minimum(rho, self.alpha_grid / h_max)
        return grid, vals, h_min, h_max


def _merge_points(base, extras):
    """Sorted union of grids; an extra x within 1e-9 |x| of a base point
    snaps onto it, so a grid and its rescaling merge alike."""
    base = np.asarray(base, dtype=np.float64)
    x = np.asarray(extras, dtype=np.float64)
    near = np.abs(x[:, None] - base) <= 1e-9 * np.abs(x)[:, None]
    return np.union1d(base, x[~near.any(axis=1)])


def _step_grid(upper, step):
    """The h grid of kernel spectra and analyses: step * (1..n), the fewest
    points reaching upper; ConfigError unless step is positive and finite
    and n is at most MAX_GRID_STEPS."""
    if not 0 < step < math.inf:
        raise ConfigError(f"grid_step must be positive and finite, got {step}")
    n = _grid_steps(upper / step - 1e-9, f"an h grid up to {upper:.6g} at grid_step {step:g}")
    return step * np.arange(1, n + 1)


def _grid_steps(steps, what):
    """ceil(steps), the steps of a grid; ConfigError naming ``what`` unless
    that is at most MAX_GRID_STEPS.  Checked before any grid is allocated."""
    if not steps <= MAX_GRID_STEPS:
        raise ConfigError(f"{what} needs {steps:.6g} steps, more than {MAX_GRID_STEPS}")
    return int(math.ceil(steps))


def _sampled_grid(x, y, xname, yname):
    """(x, y) as float64 arrays; MathValidityError unless both are non-empty
    and of equal length and x is positive, finite and strictly increasing."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise MathValidityError(f"{xname} and {yname} grids must be non-empty and equal length")
    if not (x[0] > 0 and x[-1] < math.inf and np.all(np.diff(x) > 0)):
        raise MathValidityError(f"{xname} grid must be strictly increasing, positive and finite")
    return x, y


def _integer(name, value, lo, hi=None):
    """ConfigError unless value is an integer of any type but bool, in [lo, hi]
    (no upper bound when hi is None)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo or (hi is not None and value > hi)):
        bound = f"of at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")


def spectrum_from_rho(density, grid_step: float = DEFAULT_GRID_STEP) -> SpectrumCurve:
    """Spectrum generated by an upper logarithmic density: any ``Kernel``
    (validated here) or a ``LogDensity(alpha_grid, rho_values)``.

    The span is decided once, by ``density.spectrum_grid``, which returns
    h_min and h_max as points of its grid; presence is read off that grid
    by exact comparison.  On the span d >= 0 by definition, so d is
    clipped at 0 there: where rho is steep at its left zero, the solve and
    the rounding of h_min can cost 1e-9 in rho.  The result is admissible
    (``check_admissible`` returns no violation, and d(h_max) is exactly
    1), or the call raises: FlatSpectrumError when rho touches zero but is
    never positive (the constant-exponent sparse construction applies
    there), EmptySpectrumError when rho is negative everywhere,
    KernelValidityError for a kernel whose rho is nonnegative arbitrarily
    close to 0 (location <= alpha*), and MathValidityError where h_max is
    so small (subnormal) that 1/h_max, the sup of d(h)/h, overflows.  A
    kernel needs a positive, finite grid_step (ConfigError); samples
    ignore it.
    """
    grid, vals, h_min, h_max = density.spectrum_grid(grid_step)
    if not h_max > 1.0 / np.finfo(np.float64).max:   # so 1/h_max is a float
        raise MathValidityError(f"h_max = {float(h_max):.6g} is below 1/(largest float): "
                                "d(h)/h = 1/h_max overflows")
    # h times the running maximum of rho/alpha over evaluation points <= h;
    # vals are finite or -inf, never NaN, and -inf / grid stays -inf.  Every
    # ratio is at most 1/h_max, a float; one that passes the largest float
    # is a negative rho at a subnormal alpha, and its -inf is below any sup
    with np.errstate(over="ignore"):
        d = grid * np.maximum.accumulate(vals / grid)
    absent = ~np.isfinite(d) | (grid < h_min) | (grid > h_max)
    np.maximum(d, 0.0, out=d)
    d[absent] = np.nan
    d[grid == h_max] = 1.0   # h_max / h_max, without the rounding of the product
    return SpectrumCurve(h_grid=grid, d_values=d)
