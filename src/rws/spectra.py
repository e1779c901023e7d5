"""Singularity spectra and upper logarithmic densities of coefficient laws.

A spectrum curve assigns to each Hoelder exponent h a dimension d(h) in
[0, 1], sampled on a finite grid; absent values (exponents that do not
occur) are stored as NaN and never enter arithmetic unmasked.  The span
[h_min, h_max] of a curve runs from its first to its last present sample.
The one sampled type, ``SpectrumCurve``, checks its own shape when made (a
positive, finite, strictly increasing grid of equal length to its values,
and one present sample), so no reader checks it again.  An admissible
target spectrum satisfies:

  * d(h) <= 1 everywhere it is present,
  * d is present on every grid point of [h_min, h_max] and nonnegative there,
  * h -> d(h)/h is non-decreasing,
  * d(h_max) = 1.

``spectrum_from_rho`` maps the upper logarithmic density rho of a kernel
to the spectrum it generates,

    d(h) = h * sup_{0 < a <= h} rho(a)/a   on [h_min, h_max],

with h_max = 1/sup_{a>0} rho(a)/a and h_min the infimum of {rho >= 0}.
The sup is a running maximum over a step grid out to 4 h_max, no
interpolation.  The span is decided by the kernel's ``ratio_max``: its
one solve gives h_min, alpha_t and h_max, which the grid holds exactly.
The snaps onto the step grid are relative, so a density and its
rescaling in h get the same grid.

Closed-form densities come from four kernel families used for
self-similar cascade models: gaussian, shifted gamma, shifted poisson
(the log-Poisson cascade) and dirac (exact monofractal).  Each family is
a frozen dataclass deriving from ``Kernel``; its first field is its
location parameter (m, alpha0 or H) and the rest its shape parameters.
Each rule common to the families is stated once, in the base ``Kernel``
or in ``kernel_validity``, and a family carries only its own formulas:
the density ``rho``, the mode offset ``_offset`` (the ``peak``, where rho
= 1, is location + offset), ``_threshold`` (its one threshold alpha* on
the location), ``_alpha_t`` (the maximizer of rho(a)/a), and the scale-j
exponent law of the self-similarity semigroup (``scale_cap``,
``scale_quantile``).  A kernel checks itself when made: ``__post_init__``
runs ``kernel_validity`` once, which refuses a non-finite parameter, a
shape parameter <= 0, a closed form beyond float precision, and
location <= alpha* (validity is h_min > 0, rho < 0 near 0), and the
kernel keeps the alpha* it returns, so no reader checks or solves it
again; the base reads h_min = location - alpha* off it.  alpha* is sigma
sqrt(2 ln 2) for the gaussian, 0 for dirac, and minus the left zero of
the family's own shifted density for gamma and poisson; a poisson
density puts its K = 0 atom, 1 - c log2(e), at alpha0, so for c <= ln 2
it has no left zero and alpha* is 0.  The base ``ratio_max`` gives
h_min, alpha_t and h_max from one solve, for both ``spectrum_from_rho``
and the synthesis regularity warning, and refuses a span that floats
cannot resolve (the peak on or below h_min, alpha_t below h_min, or
h_max below h_min or not finite); dirac's span is the one point H.  The
gaussian alpha_t is closed form; the shifted families solve alpha* and
alpha_t through one bracketed solver, ``_root``, to one ulp at any scale,
and where their rho(a)/a falls from alpha0 on, alpha_t is alpha0.

Roots are solved in-package (``_root``, a bisection on the float lattice,
which needs no tolerance).  The one scipy module loaded is scipy.special,
on a kernel's first scale-j quantile, in the ``scale_quantile`` of the
gaussian (ndtr, ndtri), gamma (gammaincinv) and poisson (gammaincc)
families.  Kernel spectra, spectrum curves, flat laws and the estimators
never load scipy; loading scipy.optimize as well would cost about 23 MB
of RSS and 0.1-0.2 s.
"""

import math
import numbers
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConfigError,
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
# a float and its bits as a signed integer, for ``_key`` and ``_float``
_FLOAT, _BITS = struct.Struct("<d"), struct.Struct("<q")


# ---------------------------------------------------------------------------
# kernel laws

def _key(x):
    """The ordered integer key of a float: consecutive floats have
    consecutive keys, and -0.0 and 0.0 share the key 0."""
    i = _BITS.unpack(_FLOAT.pack(x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _float(k):
    """The float of an ordered key; the key 0 is 0.0."""
    return _FLOAT.unpack(_BITS.pack(k if k >= 0 else -k | -0x8000000000000000))[0]


def _root(f, lo, hi):
    """The zero of f bracketed by [lo, hi], to one ulp: a bisection on the
    ordered integer keys of the floats (``_key``), which halves the count
    of floats in the bracket at each step, so any bracket, subnormal or
    not, closes in at most 64 steps, with no tolerance.  It stops at a
    float where f is 0, or at two adjacent floats where f changes sign,
    and returns the one where |f| is smaller.  ValueError where a value of
    f is NaN or f(lo) and f(hi) have one sign.  Every value of f is taken
    as a Python float, so numpy scalars raise no overflow warning."""
    lo, hi = float(lo), float(hi)
    f_lo, f_hi = float(f(lo)), float(f(hi))
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise ValueError(f"f is NaN at an end of [{lo!r}, {hi!r}]")
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(f"f has one sign on [{lo!r}, {hi!r}]: f(lo) = {f_lo!r}, f(hi) = {f_hi!r}")
    # the values and keys of the ends where f < 0 and where f > 0
    (f_neg, neg), (f_pos, pos) = sorted([(f_lo, _key(lo)), (f_hi, _key(hi))])
    while abs(pos - neg) > 1:
        k = (neg + pos) // 2
        x = _float(k)
        fx = float(f(x))
        if fx < 0.0:
            neg, f_neg = k, fx
        elif fx > 0.0:
            pos, f_pos = k, fx
        elif fx == 0.0:
            return x
        else:
            raise ValueError(f"the value of f at {x!r} is NaN")
    return _float(neg if -f_neg <= f_pos else pos)


def _left_zero(f, peak):
    """The zero of f between 0 (excluded) and peak, where f >= 0: the
    bracket starts just right of 0 and walks toward it while f >= 0, and
    once the walk has moved the zero lies between its last two steps,
    which ``_root`` closes to one ulp, subnormal or not.  A zero nearer 0
    than the least subnormal is 0 itself."""
    hi, step = peak, peak * 1e-12
    while f(step) >= 0.0:
        hi, step = step, step / 2.0
        if step == 0.0:   # f(0) may be log2(0); not evaluated
            return 0.0
    return _root(f, step, hi)


def gaussian_threshold(sigma: float) -> float:
    """Smallest admissible mean for a gaussian kernel of width sigma."""
    return sigma * math.sqrt(2.0 * math.log(2.0))


class Kernel:
    """Base of the kernel families.  A family's first field is its
    location parameter and the others its shape parameters, each > 0;
    alpha* is its one threshold: h_min is location - alpha*, and the
    kernel is valid iff h_min > 0, that is iff location > alpha*.  A
    family supplies ``_rho`` (on an array), ``_alpha_t``, ``scale_cap``
    and ``scale_quantile`` (dirac, whose span is one point, supplies
    ``ratio_max`` instead of ``_alpha_t``), and overrides the defaults
    here where they differ: ``_offset``, the mode's offset from the
    location (0), and ``_threshold``, alpha* (0).  A kernel checks itself
    when made (``kernel_validity``) and keeps the alpha* it solved; that
    is not a field, so ``fields``, ``repr`` and ``==`` see only the
    parameters.  Scale-j laws put no mass at +inf: kernels produce no
    zero coefficients."""

    def __post_init__(self):
        object.__setattr__(self, "_alpha_star", kernel_validity(self))

    def rho(self, alpha):
        """Upper logarithmic density (vectorized; -inf allowed; a scalar
        argument gives a float)."""
        out = self._rho(np.asarray(alpha, dtype=np.float64))
        return out if out.shape else float(out)

    def _offset(self) -> float:
        return 0.0

    def _threshold(self) -> float:
        return 0.0

    def _shape_text(self) -> str:
        """The shape parameters as name=value pairs, for messages."""
        _, *shape = fields(self)
        return ", ".join(f"{p.name}={getattr(self, p.name):.12g}" for p in shape)

    def peak(self) -> float:
        """The mode, where rho = 1: the location plus the mode offset."""
        return getattr(self, fields(self)[0].name) + self._offset()

    def alpha_star(self) -> float:
        """The threshold on the location parameter, solved when the kernel was made."""
        return self._alpha_star

    def h_min(self) -> float:
        """The left edge of {rho >= 0}, location - alpha*; where that rounds
        onto a point where rho = -inf (a gamma whose zero is below the
        resolution of its shift point), the next float up."""
        h = getattr(self, fields(self)[0].name) - self.alpha_star()
        return h if self.rho(h) > -math.inf else float(np.nextafter(h, math.inf))

    def ratio_max(self):
        """(h_min, alpha_t, h_max): the left edge of {rho >= 0}, the
        maximizer alpha_t of rho(a)/a (the family's ``_alpha_t``), and h_max
        = 1/max rho(a)/a, for both ``spectrum_from_rho`` and the synthesis
        regularity warning.  MathValidityError unless peak > h_min, h_min
        <= alpha_t and h_min <= h_max < inf: the mode offset is below the
        resolution of the location, which rounds the peak onto or below
        h_min, or leaves so few floats between them that rho(a)/a still
        rises at the peak or its maximum comes out of order.  alpha_t may
        lie an ulp right of h_max: rho <= 1 puts h_max at or right of
        alpha_t, save for the rounding of 1/(rho/alpha_t) where
        rho(alpha_t) rounds to 1."""
        h_min, peak = self.h_min(), self.peak()
        alpha_t = self._alpha_t(h_min, peak) if peak > h_min else None
        if alpha_t is not None:
            ratio = self.rho(alpha_t) / alpha_t
            if ratio > 0.0 and h_min <= alpha_t and h_min <= 1.0 / ratio < math.inf:
                return h_min, alpha_t, 1.0 / ratio
        location = fields(self)[0].name
        raise MathValidityError(f"the mode offset of ({self._shape_text()}) is below the resolution "
                                f"of {location} = {getattr(self, location):.12g}: rho has no span")


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

    def _threshold(self) -> float:
        """Minus the left zero of the shifted density: alpha0 > alpha* puts
        that zero, h_min, right of 0.  Never -0.0.  KernelValidityError,
        before the solve, unless rho at the mode offset is finite and
        within 1e-9 of 1: where it is not, the closed form's terms
        overflow, underflow or cancel, and no root of it can be trusted."""
        with np.errstate(all="ignore"):
            try:
                top = float(self._rho_shifted(self._offset()))
            except ValueError:   # math.log2 of a constant that underflowed to 0
                top = math.nan
        if not abs(top - 1.0) <= _TOL_ONE:
            raise KernelValidityError(f"rho at the mode of ({self._shape_text()}) is {top:.6g}, "
                                      "not 1: its closed form is beyond float precision")
        return 0.0 - _left_zero(self._rho_shifted, self._offset())

    def _alpha_t(self, h_min, peak):
        """The maximizer of rho(a)/a on (h_min, peak), or h_min itself where
        rho(a)/a falls from h_min on (a poisson whose K = 0 atom at alpha0
        dominates); None where rho(a)/a still rises at the peak."""
        # the maximizer solves f(a) = rho'(a) a - rho(a) = 0, bracketed by
        # the left zero of rho (ratio rising, f > 0) and the peak (ratio
        # falling).  Where h_min is the shift point alpha0 (a poisson with
        # c <= ln 2), rho' is infinite there, so the bracket starts inside,
        # at least one ulp; rho is concave, so f falls, and where f <= 0
        # there already rho(a)/a only falls and its sup is at h_min itself.
        # The bracket lies right of alpha0, where rho is the shifted density:
        # f reads it as a scalar, without rho's array and masks
        lo = h_min
        if h_min == self.alpha0:
            lo = max(h_min + (peak - h_min) * 1e-12, np.nextafter(h_min, peak))
        f = lambda a: self.rho_prime(a) * a - self._rho_shifted(a - self.alpha0)
        f_lo = f(lo)
        if f_lo > 0.0 and f(peak) > 0.0:
            return None
        return h_min if f_lo <= 0.0 else _root(f, lo, peak)


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """rho(a) = 1 - log2(e) (a-m)^2 / (2 sigma^2); valid iff m > alpha* =
    sigma*sqrt(2 ln 2), with 2 sigma^2 a normal float.

    Scale j: Normal(m, sigma^2/j) conditioned on alpha > 0; a sampled
    alpha is >= 0, the quantile clipped at 0, where it can round below."""

    m: float
    sigma: float

    def _rho(self, a):
        return 1.0 - LOG2E * (a - self.m) ** 2 / (2.0 * self.sigma**2)

    def _threshold(self) -> float:
        # rho divides by 2 sigma sigma: it must be finite, and sigma sigma
        # at least the least normal float, below which it has lost digits
        if not 2.0 * np.finfo(np.float64).tiny <= 2.0 * self.sigma * self.sigma < math.inf:
            raise KernelValidityError("sigma: 2 sigma^2 is not a normal float")
        return gaussian_threshold(self.sigma)

    def _alpha_t(self, h_min, peak):
        """rho(a)/a peaks at alpha_t = sqrt(m - alpha*) sqrt(m + alpha*),
        each root taken on its own so that the product cannot underflow."""
        return math.sqrt(h_min) * math.sqrt(self.m + self.alpha_star())

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
        and rho has no left zero: h_min is alpha0 itself.  No root is
        solved there, and rho at the mode, 1 - c log2 e + c log2(ce/c), is
        1 to a few ulps, so the mode check is not needed."""
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

    def ratio_max(self):
        return self.H, self.H, self.H

    def scale_cap(self, j: int) -> float:
        return self.H

    def scale_quantile(self, j: int, u):
        return np.full(u.shape, self.H)


def kernel_validity(kernel) -> float:
    """alpha* of a valid kernel, which every kernel runs once when made.
    KernelValidityError names a non-finite parameter (root solves need
    finite ones), a shape parameter <= 0, a value the family's
    ``_threshold`` refuses (a gaussian sigma whose square is not a normal
    float, a gamma or poisson closed form beyond float precision), or
    location <= alpha*, which puts rho >= 0 arbitrarily close to 0.  In
    floats location - alpha* > 0 exactly when location > alpha*, so this
    is the verdict h_min > 0."""
    if not isinstance(kernel, Kernel):
        raise UnsupportedVariantError(f"unknown kernel {type(kernel).__name__}")
    location, *rest = fields(kernel)
    for f in fields(kernel):
        if not math.isfinite(getattr(kernel, f.name)):
            raise KernelValidityError(f"{f.name} = {getattr(kernel, f.name)} is not finite")
    for f in rest:
        if not getattr(kernel, f.name) > 0:
            raise KernelValidityError(f"{f.name} <= 0")
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
        h = self.h_grid = np.asarray(self.h_grid, dtype=np.float64)
        d = self.d_values = np.asarray(self.d_values, dtype=np.float64)
        if h.size != d.size or h.size == 0:
            raise MathValidityError("h and d grids must be non-empty and equal length")
        if not (h[0] > 0 and h[-1] < math.inf and np.all(np.diff(h) > 0)):
            raise MathValidityError("h grid must be strictly increasing, positive and finite")
        if np.isnan(d).all():
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
# the kernel -> spectrum map

class LogDensity:
    """Nothing in the package makes one; perfbench/tracing.py hooks
    ``LogDensity.from_kernel`` until the benchmark-only change (ROADMAP items 7, 21)."""

    @classmethod
    def from_kernel(cls, kernel):
        return kernel


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


def _integer(name, value, lo, hi=None):
    """ConfigError unless value is an integer of any type but bool, in [lo, hi]
    (no upper bound when hi is None)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo or (hi is not None and value > hi)):
        bound = f"of at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")


def spectrum_from_rho(kernel, grid_step: float = DEFAULT_GRID_STEP) -> SpectrumCurve:
    """Spectrum generated by the upper logarithmic density of a ``Kernel``.

    The span is decided once, by one ``kernel.ratio_max()`` solve: its
    h_min, alpha_t and h_max are exact points of the step grid out to
    4 h_max (step points within a relative 1e-9 of them dropped), and
    presence is read off that grid by exact comparison.  On the span
    d >= 0 by definition, so d is clipped at 0 there: where rho is steep at
    its left zero, the solve and the rounding of h_min can cost 1e-9 in
    rho.  The result is admissible (``check_admissible`` returns no
    violation, and d(h_max) is exactly 1), or the call raises:
    ConfigError unless grid_step is positive and finite, and
    MathValidityError where the kernel's span is beyond float resolution
    (``ratio_max``) or h_max is so small (subnormal) that 1/h_max, the sup
    of d(h)/h, overflows.
    """
    h_min, alpha_t, h_max = kernel.ratio_max()
    grid = _merge_points([h_min, alpha_t, h_max], _step_grid(4.0 * h_max, grid_step))
    vals = kernel.rho(grid)
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
