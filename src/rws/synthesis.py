"""Random wavelet series with a prescribed singularity spectrum.

Coefficients at scale j are ``C[j][k] = chi * 2**(-j*alpha)`` with chi a
fair random sign and alpha drawn independently per coefficient from a
per-scale law on (0, inf]; the value +inf encodes a zero coefficient.

Three sources of per-scale laws:

  * a target spectrum curve d(h): the law has density
    ``(j ln 2 / h_max) * 2**(j*(d(a)-1))`` on [0, h_max] plus an atom at
    +inf absorbing the leftover mass (the total is <= 1 whenever d is
    admissible; the tabulated total can exceed it by the trapezoid rule's
    error and is clipped to 1);
  * a kernel law, scaled by the self-similarity semigroup: at scale j
    the exponent is the j-fold convolution of the kernel rescaled by
    1/j, which is available in closed form for all four families;
  * a flat law: a single exponent alpha0 occupied with probability
    ``j * 2**(-j)`` (zero otherwise), producing a degenerate spectrum.

A scale law samples itself (``law.sample(u)``): a ``ScaleLawTable`` for
spectrum and flat sources, a ``KernelScaleLaw`` for kernels.  Every input
checks itself when made: a kernel, a flat law and ``SynthesisConfig``
(J, the wavelet order and the seed) refuse bad values at construction,
also through ``dataclasses.replace``.  ``validate_config`` judges only
what is left: a spectrum's admissibility, and the regularity warning.

Randomness is counter-based: scale j of a run keyed by ``seed`` uses a
Philox stream with key (seed, j); coefficient k reads column k of the
(2, 2**j) uniform matrix (row 0 drives the exponent, row 1 the sign).
Any coefficient is therefore reproducible in isolation.

The uniform matrix is one draw.  The exponents are sampled in fixed
chunks of SAMPLE_CHUNK values; a level of more than one chunk (j > 16)
spreads its chunks over one thread per CPU of the process, and smaller
ones run inline.  Every law maps each uniform on its own, with no state
shared between elements, so a chunk's exponents are the same bits
whichever thread computes them and in whatever order: the output does
not depend on the worker count.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ConfigError, MathValidityError
from .spectra import (
    Kernel,
    SpectrumCurve,
    _grid_steps,
    _integer,
    check_admissible,
    kernel_validity,  # unused here (kernels run it when made); perfbench/tracing.py hooks it
    spectrum_from_rho,  # unused here; perfbench/tracing.py hooks it in this module
)
from .wavelet import (SUPPORTED_ORDERS, CoefficientPyramid, _map_blocks, daubechies_filter,
                      inverse_dwt)

_LN2 = math.log(2.0)
# Uniforms per chunk of exponent sampling.  A level of more than one chunk
# is sampled on one thread per CPU; the special functions release the GIL.
# At J = 22 on a 2-core VM, gamma quantiles of 2^21 uniforms took 1.27 s
# on one thread and 0.64 s on two.
SAMPLE_CHUNK = 2**16


@dataclass(frozen=True)
class FlatLaw:
    """Constant exponent alpha0 with sparse occupancy j * 2**(-j)."""

    alpha0: float

    def __post_init__(self):
        if not 0 < self.alpha0 < math.inf:
            raise ConfigError("flat law needs a finite alpha0 > 0")


@dataclass(frozen=True)
class SynthesisConfig:
    """ConfigError when made unless J, the wavelet order and the seed are
    integers in range; change one through ``dataclasses.replace``."""

    J: int
    source: object          # SpectrumCurve | kernel | FlatLaw
    wavelet_order: int = 10
    seed: int = 0

    def __post_init__(self):
        _integer("J", self.J, 4, 24)
        _integer("wavelet order", self.wavelet_order, SUPPORTED_ORDERS[0], SUPPORTED_ORDERS[-1])
        _integer("seed", self.seed, 0, 2**64 - 1)


def validate_config(config: SynthesisConfig):
    """``(law, c00)`` of a config, whose settings and source checked
    themselves when made: judge only a spectrum's admissibility, and warn
    if h_max > wavelet order - 1."""
    law, c00, h_max = _source_parts(config.source)
    if h_max > config.wavelet_order - 1:
        warnings.warn(
            f"target h_max {h_max:.3g} exceeds the regularity guarantee of "
            f"db{config.wavelet_order} (order - 1 = {config.wavelet_order - 1}); "
            "exponents near h_max may be distorted",
            stacklevel=2,
        )
    return law, c00


@dataclass(frozen=True, eq=False)
class ScaleLawTable:
    """Law of the exponent alpha at scale j, tabulated: (alpha_grid, cdf),
    a finite exponent with probability cdf[-1], sampled by inverse CDF with
    linear interpolation; uniforms above cdf[-1] give +inf (a zero
    coefficient)."""

    alpha_grid: np.ndarray
    cdf: np.ndarray

    def sample(self, u):
        out = np.full(u.shape, np.inf)
        finite = u <= self.cdf[-1]
        x = u[finite]
        idx = np.clip(np.searchsorted(self.cdf, x, side="right"), 1, self.cdf.size - 1)
        c1, g1 = self.cdf[idx], self.alpha_grid[idx]
        idx -= 1
        # g0 + (x - c0) * (g1 - g0) / (c1 - c0) in place, in that order of operations
        c0 = self.cdf[idx]
        x -= c0
        c1 -= c0
        del c0
        g0 = self.alpha_grid[idx]
        g1 -= g0
        x *= g1
        x /= c1
        x += g0
        out[finite] = x
        return out


@dataclass(frozen=True, eq=False)
class KernelScaleLaw:
    """Law of the exponent alpha at scale j of a kernel: its closed-form
    quantile, capped at alpha_cap; a finite exponent with probability 1,
    so no zero coefficients."""

    j: int
    kernel: Kernel
    alpha_cap: float

    def sample(self, u):
        return np.minimum(self.kernel.scale_quantile(self.j, u), self.alpha_cap)


def scale_law_from_spectrum(curve: SpectrumCurve, j: int) -> ScaleLawTable:
    """Tabulate the spectrum-driven density at scale j (trapezoid CDF).

    The curve must be admissible, which ``validate_config`` judges once
    (``check_admissible``).  Near d(h) = h/h_max the trapezoid rule
    over-integrates the convex density, so the tabulated total can exceed 1
    (by a few 1e-6 at j = 18..23); the CDF is clipped to 1."""
    present = curve.present()
    h, d = curve.h_grid[present], curve.d_values[present]
    h_max = float(h[-1])
    step = min(0.002, h_max / 2048.0)
    n = _grid_steps(h_max / step, f"the scale-{j} law of a spectrum with h_max {h_max:g}")
    grid = np.linspace(0.0, h_max, n + 1)
    d = np.interp(grid, h, d)
    density = np.zeros_like(grid)
    span = (grid >= h[0]) & (grid <= h_max)
    density[span] = (j * _LN2 / h_max) * np.exp2(j * (d[span] - 1.0))
    widths = np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * widths)])
    return ScaleLawTable(
        alpha_grid=grid,
        cdf=np.minimum(cdf, 1.0),
    )


def flat_scale_law(alpha0: float, j: int) -> ScaleLawTable:
    """Atom at alpha0 with mass j * 2**(-j), as the table [alpha0, alpha0], [0, mass]."""
    mass = j * 2.0 ** (-j)
    return ScaleLawTable(
        alpha_grid=np.array([alpha0, alpha0]),
        cdf=np.array([0.0, mass]),
    )


def scale_law_from_kernel(kernel: Kernel, j: int) -> KernelScaleLaw:
    """Scale-j exponent law of a kernel (valid, as every kernel is when made)."""
    if j < 1:
        raise MathValidityError("kernel scale laws are defined for j >= 1")
    return KernelScaleLaw(j=j, kernel=kernel, alpha_cap=kernel.scale_cap(j))


def sample_alphas(law, uniforms) -> np.ndarray:
    """Map a vector of uniforms in [0, 1) to exponents by ``law.sample``.

    The uniforms are sampled in chunks of SAMPLE_CHUNK, on one thread per
    CPU of the process when there is more than one chunk; the bits equal
    ``law.sample(uniforms)`` because every law samples elementwise."""
    u = np.asarray(uniforms, dtype=np.float64)
    out = np.empty(u.shape)

    def fill(i):
        out[i : i + SAMPLE_CHUNK] = law.sample(u[i : i + SAMPLE_CHUNK])

    _map_blocks(fill, range(0, u.size, SAMPLE_CHUNK))
    return out


def uniform_field(seed: int, j: int) -> np.ndarray:
    """(2, 2**j) uniforms from the Philox stream keyed by (seed, j)."""
    key = np.array([seed, j], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random((2, 2**j))


def _source_parts(source):
    """(law, c00, h_max) of a synthesis source; the one place that
    dispatches on its type, and where a spectrum is judged admissible.

    ``law(j)`` builds the scale-j exponent law.  ``c00`` is |C[0][0]|:
    scale 0 is degenerate, the j-weighted laws of spectrum and flat
    sources carry no mass there, while kernel laws reduce to the
    convolution identity.  ``h_max`` is the target's largest exponent.
    """
    if isinstance(source, SpectrumCurve):
        violations = check_admissible(source)
        if violations:
            raise AdmissibilityError("; ".join(violations))
        return (lambda j: scale_law_from_spectrum(source, j)), 0.0, source.h_max
    if isinstance(source, Kernel):
        return (lambda j: scale_law_from_kernel(source, j)), 1.0, source.ratio_max()[2]
    if isinstance(source, FlatLaw):
        return (lambda j: flat_scale_law(source.alpha0, j)), 0.0, source.alpha0
    raise ConfigError(f"unknown synthesis source {type(source).__name__}")


def generate_coefficients(config: SynthesisConfig) -> CoefficientPyramid:
    """Draw the full coefficient pyramid (coarse_mean = 0); |C[0][0]| is
    1 for kernel sources and 0 otherwise.  A level's exponents turn into
    its coefficients in place (-j alpha, exp2, sign), so the stage holds
    the pyramid and the top level's (2, 2**(J-1)) uniforms: about twice
    the signal's size."""
    law, c00 = validate_config(config)
    levels = []
    for j in range(config.J):
        u = uniform_field(config.seed, j)
        if j == 0:
            levels.append(np.where(u[1] < 0.5, -1.0, 1.0) * c00)
            continue
        c = sample_alphas(law(j), u[0])
        np.multiply(c, -j, out=c)
        np.exp2(c, out=c)  # +0.0 where alpha = +inf
        # the sign: -c where u < 0.5, as exp2 never sets the sign bit of c
        np.subtract(u[1], 0.5, out=u[1])
        np.copysign(c, u[1], out=c)
        levels.append(c)
    return CoefficientPyramid(J=config.J, levels=levels, coarse_mean=0.0)


def synthesize(config: SynthesisConfig) -> np.ndarray:
    """Generate coefficients and reconstruct the sampled path."""
    return inverse_dwt(generate_coefficients(config), daubechies_filter(config.wavelet_order))
