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
``LogDensity`` gives its samples plus h_max, where an h_max within 1e-9
of a sample is that sample; a ``Kernel`` gives a step grid out to
4 h_max that holds h_min, alpha_t and h_max of one ``ratio_max`` solve
exactly.

Closed-form densities come from four kernel families used for
self-similar cascade models: gaussian, shifted gamma, shifted poisson
(the log-Poisson cascade) and dirac (exact monofractal).  Each family is
a frozen dataclass deriving from ``Kernel`` and carries its own
formulas as methods: the density ``rho`` and its derivative
``rho_prime``, the ``peak`` where rho = 1, the validity check
``validate``, the left edge ``h_min`` of {rho >= 0}, ``ratio_max``
(h_min, the maximizer alpha_t of rho(a)/a and h_max from one solve,
for both ``spectrum_from_rho`` and the synthesis regularity warning; a
poisson density puts its K = 0 atom, 1 - c log2(e), at alpha0, and where
its rho(a)/a falls from alpha0 on, alpha_t is alpha0), and the
scale-j exponent law of the self-similarity semigroup (``scale_cap``,
``scale_quantile``).  The validity threshold guarantees rho < 0 near 0;
for the gamma and poisson families it is ``alpha_star``, minus the left
zero of the family's own shifted density, found by the same search as
``h_min`` (a poisson density that is nonnegative at its shift point,
c <= ln 2, has no left zero and takes the zero beyond its peak).  Every
root goes through one bracketed solver, ``_root``.

scipy is imported where a kernel law needs it, on first call, and
nowhere else: ``_root`` (brentq) and the ``scale_quantile`` of the
gaussian (ndtr, ndtri), gamma (gammaincinv) and poisson (gammaincc)
families.  Loading scipy.special and scipy.optimize takes about 0.6 s,
three quarters of a cold ``import rws.cli`` on a 2-core machine, and
spectrum curves, flat laws and the estimators never call them.
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


# ---------------------------------------------------------------------------
# kernel laws

def _root(f, lo, hi):
    """The zero of f bracketed by [lo, hi], by Brent's method to machine precision."""
    from scipy.optimize import brentq

    return brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)


def _left_zero(f, origin, peak):
    """The zero of f between origin (excluded) and peak, where f >= 0: the
    bracket starts just right of origin and walks toward it while f >= 0.
    A zero nearer origin than the least subnormal step is origin itself."""
    # halving the step, not the point: origin + step reaches origin itself
    # once step is below half an ulp of it, where halving the point can
    # round back up to origin + 1 ulp forever
    step = (peak - origin) * 1e-12
    while f(origin + step) >= 0.0:
        step /= 2.0
        if step == 0.0:   # f(origin) may be log2(0); not evaluated
            return origin
    return _root(f, origin + step, peak)


def gaussian_threshold(sigma: float) -> float:
    """Smallest admissible mean for a gaussian kernel of width sigma."""
    return sigma * math.sqrt(2.0 * math.log(2.0))


class Kernel:
    """Base of the kernel families; subclasses supply ``_rho`` (on an
    array), ``rho_prime``, ``peak``, ``validate``, ``h_min``,
    ``scale_cap`` and ``scale_quantile``.  Scale-j laws put no mass at
    +inf: kernels produce no zero coefficients."""

    def rho(self, alpha):
        """Upper logarithmic density (vectorized; -inf allowed; a scalar
        argument gives a float)."""
        out = self._rho(np.asarray(alpha, dtype=np.float64))
        return out if out.shape else float(out)

    def ratio_max(self):
        """(h_min, alpha_t, h_max): the left edge of {rho >= 0}, the
        maximizer alpha_t of rho(a)/a, and h_max = 1/max rho(a)/a.  Where
        rho(a)/a falls from h_min on (a poisson whose K = 0 atom at alpha0
        dominates), alpha_t is h_min itself.

        Expects a valid kernel.  Raises MathValidityError when rho is
        nonnegative arbitrarily close to 0, which leaves no spectrum.
        """
        h_min = self.h_min()
        if h_min <= 0:
            raise MathValidityError(
                "log-density is nonnegative arbitrarily close to 0; no spectrum"
            )
        peak = self.peak()
        # the maximizer solves f(a) = rho'(a) a - rho(a) = 0, bracketed by
        # the left zero of rho (ratio rising, f > 0) and the peak (ratio
        # falling).  Where h_min is a shift point alpha0 (a shifted poisson
        # with c <= ln 2, or a gamma whose zero is below resolution), rho' is
        # infinite there, so the bracket starts inside, at least one ulp; rho
        # is concave, so f falls, and where f <= 0 there already rho(a)/a
        # only falls and its sup is at h_min itself (never for a gamma,
        # whose rho falls to -inf at alpha0).
        lo = h_min
        if h_min == getattr(self, "alpha0", None):
            lo = max(h_min + (peak - h_min) * 1e-12, np.nextafter(h_min, peak))
        f = lambda a: self.rho_prime(a) * a - self.rho(a)
        alpha_t = h_min if f(lo) <= 0.0 else _root(f, lo, peak)
        return h_min, alpha_t, 1.0 / (self.rho(alpha_t) / alpha_t)

    def spectrum_grid(self, grid_step: float):
        """(grid, rho on it, h_min, h_max) for ``spectrum_from_rho``: the
        step grid with h_min, alpha_t and h_max of one ``ratio_max`` solve
        as exact points, step points within 1e-9 of them dropped."""
        kernel_validity(self)
        h_min, alpha_t, h_max = self.ratio_max()
        grid = _merge_points([h_min, alpha_t, h_max], _step_grid(4.0 * h_max, grid_step))
        return grid, self.rho(grid), h_min, h_max

    def alpha_star(self) -> float:
        raise UnsupportedVariantError(
            f"alpha* is defined for the shifted gamma and shifted poisson families, "
            f"not {type(self).__name__}"
        )


class _ShiftedKernel(Kernel):
    """Families supported on (alpha0, inf): rho = -inf at and left of
    alpha0 (the poisson family puts its K = 0 atom at alpha0 itself),
    valid iff alpha0 > alpha*; subclasses supply
    ``_rho_shifted(t)`` for t = a - alpha0 > 0 and the mode offset
    ``_offset()``, where rho = 1."""

    def _rho(self, a):
        t = a - self.alpha0
        out = np.full(a.shape, -np.inf)
        pos = t > 0
        out[pos] = self._rho_shifted(t[pos])
        return out

    def peak(self) -> float:
        return self.alpha0 + self._offset()

    def validate(self) -> None:
        if not self.alpha0 > self.alpha_star():
            params = ", ".join(f.name for f in fields(self) if f.name != "alpha0")
            raise KernelValidityError(f"alpha0 <= alpha*({params})")

    def alpha_star(self) -> float:
        """Minus the left zero of the shifted density: alpha0 > alpha* puts
        that zero, h_min, right of 0."""
        return -_left_zero(self._rho_shifted, 0.0, self._offset())

    def h_min(self) -> float:
        """Left zero of rho."""
        return _left_zero(self.rho, self.alpha0, self.peak())


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """rho(a) = 1 - log2(e) (a-m)^2 / (2 sigma^2); valid iff m > sigma*sqrt(2 ln 2).

    Scale j: Normal(m, sigma^2/j) conditioned on alpha > 0; a sampled
    alpha is >= 0, the quantile clipped at 0, where it can round below."""

    m: float
    sigma: float

    def _rho(self, a):
        return 1.0 - LOG2E * (a - self.m) ** 2 / (2.0 * self.sigma**2)

    def rho_prime(self, a):
        return -LOG2E * (a - self.m) / self.sigma**2

    def peak(self) -> float:
        return self.m

    def validate(self) -> None:
        if not (self.sigma > 0 and self.sigma**2 > 0):   # rho and rho' divide by sigma**2
            raise KernelValidityError("sigma <= 0, or sigma**2 underflows to 0")
        if not self.m > gaussian_threshold(self.sigma):
            raise KernelValidityError("m <= sigma*sqrt(2 ln 2)")

    def h_min(self) -> float:
        return self.m - gaussian_threshold(self.sigma)

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

    def alpha_star(self) -> float:
        if self.nu <= 0 or self.beta <= 0:
            raise KernelValidityError("nu <= 0 or beta <= 0")
        return super().alpha_star()

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

    def alpha_star(self) -> float:
        """For c <= ln 2 the shifted density is nonnegative at 0+ and has
        one zero, beyond its peak at t = c."""
        if self.c <= 0:
            raise KernelValidityError("c <= 0")
        if 1.0 - self.c * LOG2E < 0.0:
            return super().alpha_star()
        hi = 2.0 * self.c
        while self._rho_shifted(hi) >= 0.0:
            hi *= 2.0
        return -_root(self._rho_shifted, self.c, hi)

    def h_min(self) -> float:
        if 1.0 - self.c * LOG2E >= 0.0:
            return self.alpha0   # density already nonnegative at the shift point
        return super().h_min()

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
    """Monofractal law: rho = 1 at a = H, -inf elsewhere; exactly H at every scale."""

    H: float

    def _rho(self, a):
        return np.where(np.abs(a - self.H) <= 1e-12 * max(1.0, self.H), 1.0, -np.inf)

    def peak(self) -> float:
        return self.H

    def validate(self) -> None:
        if not self.H > 0:
            raise KernelValidityError("H <= 0")

    def h_min(self) -> float:
        return self.H

    def ratio_max(self):
        return self.H, self.H, self.H

    def scale_cap(self, j: int) -> float:
        return self.H

    def scale_quantile(self, j: int, u):
        return np.full(u.shape, self.H)


def kernel_validity(kernel) -> None:
    """Raise KernelValidityError naming a non-finite parameter or the
    violated threshold, if any; root solves need finite parameters."""
    if not isinstance(kernel, Kernel):
        raise UnsupportedVariantError(f"unknown kernel {type(kernel).__name__}")
    for f in fields(kernel):
        if not math.isfinite(getattr(kernel, f.name)):
            raise KernelValidityError(f"{f.name} = {getattr(kernel, f.name)} is not finite")
    kernel.validate()


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
    present sample were checked when it was made."""
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
    # d1/h1 - d0/h0 < -tol, multiplied through by h0 h1 > 0: the products
    # stay finite where a subnormal h would overflow the quotient
    hp = h[idx]
    if np.any(dp[1:] * hp[:-1] - dp[:-1] * hp[1:] < -_TOL_RATIO * hp[:-1] * hp[1:]):
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
        """The kernel itself, validated: a ``Kernel`` is a density already."""
        kernel_validity(kernel)
        return kernel

    def spectrum_grid(self, grid_step: float):
        """(grid, rho on it, h_min, h_max) for ``spectrum_from_rho``; grid_step
        is not used.  The grid is the samples plus h_max; an h_max within
        1e-9 of a sample snaps onto it, and that sample is the h_max returned,
        with rho capped at alpha / h_max."""
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
        h_max = 1.0 / float(np.max(rho[finite] / self.alpha_grid[finite]))
        grid = _merge_points(self.alpha_grid, [h_max])
        h_max = grid[np.argmin(np.abs(grid - h_max))]
        # merged grid differs from the density grid only by the inserted
        # h_max, whose running max is already the global one.  rho is capped
        # at alpha / h_max: where h_max snapped up onto a sample, that moves
        # rho by at most the snap and keeps d(h)/h at most 1/h_max
        vals = np.full(grid.shape, -np.inf)
        vals[np.searchsorted(grid, self.alpha_grid)] = np.minimum(rho, self.alpha_grid / h_max)
        return grid, vals, h_min, h_max


def _merge_points(base, extras):
    """Sorted union of grids; an extra within 1e-9 * max(1, |x|) of a base point snaps onto it."""
    base = np.asarray(base, dtype=np.float64)
    x = np.asarray(extras, dtype=np.float64)
    near = np.abs(x[:, None] - base) <= 1e-9 * np.maximum(1.0, np.abs(x))[:, None]
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
    clipped at 0 there: where rho is steep at its left zero, the solver's
    1e-15 in alpha can cost 1e-9 in rho.  The result is admissible
    (``check_admissible`` returns no violation, and d(h_max) is exactly
    1), or the call raises: FlatSpectrumError when rho touches zero but is
    never positive (the constant-exponent sparse construction applies
    there), EmptySpectrumError when rho is negative everywhere, and a
    validity error when rho is nonnegative arbitrarily close to 0.  A
    kernel needs a positive, finite grid_step (ConfigError); samples
    ignore it.
    """
    grid, vals, h_min, h_max = density.spectrum_grid(grid_step)
    # h times the running maximum of rho/alpha over evaluation points <= h;
    # vals are finite or -inf, never NaN, and -inf / grid stays -inf
    d = grid * np.maximum.accumulate(vals / grid)
    absent = ~np.isfinite(d) | (grid < h_min) | (grid > h_max)
    np.maximum(d, 0.0, out=d)
    d[absent] = np.nan
    d[grid == h_max] = 1.0   # h_max / h_max, without the rounding of the product
    return SpectrumCurve(h_grid=grid, d_values=d)
